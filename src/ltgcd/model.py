"""Projection head, prototype classifier, and SGD with milestone decay.

The head is a two-layer MLP whose output rows are L2-normalized; forward and
backward passes are written out explicitly so gradients stay inspectable and
finite-difference checkable. Class probabilities come from a temperature
softmax over cosine similarities to per-class unit prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import NORM_FLOOR, kmeans_pp_extend, normalized_group_means
from .config import Hyperparams
from .data import read_npz
from .errors import DataFormatError, TrainingDiverged, ValidationError

PARAM_NAMES = ("W1", "b1", "W2", "b2")
# The arrays of a checkpoint npz and their dtypes.
CHECKPOINT_LAYOUT = dict.fromkeys((*PARAM_NAMES, "prototypes"), np.float64)


@dataclass
class ProjectionHead:
    W1: np.ndarray   # (h, d)
    b1: np.ndarray   # (h,)
    W2: np.ndarray   # (p, h)
    b2: np.ndarray   # (p,)

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @property
    def in_dim(self) -> int:
        return self.W1.shape[1]

    def astype(self, dtype) -> ProjectionHead:
        """A copy of the head with every parameter in ``dtype``."""
        return ProjectionHead(**{name: p.astype(dtype) for name, p in self.params().items()})


@dataclass(frozen=True)
class Prototypes:
    """One unit-norm reference vector per class; row c belongs to class c."""

    M: np.ndarray   # (C, p)

    def __post_init__(self) -> None:
        norms = np.linalg.norm(self.M, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValidationError("prototype rows must be unit-norm")
        self.M.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return self.M.shape[0]


def init_head(d: int, hidden: int, out_dim: int, rng: np.random.Generator) -> ProjectionHead:
    """He-uniform weights, zero biases."""
    lim1 = np.sqrt(6.0 / d)
    lim2 = np.sqrt(6.0 / hidden)
    return ProjectionHead(
        W1=rng.uniform(-lim1, lim1, size=(hidden, d)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-lim2, lim2, size=(out_dim, hidden)),
        b2=np.zeros(out_dim),
    )


def forward_cached(head: ProjectionHead, X: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``forward`` plus the activations ``backward`` reuses:
    ``(relu mask, hidden H, row norms of Y, Z)``.

    The pass computes in the dtype of ``head``, and ``X`` is cast to it: a
    float64 head keeps every bit, and a float32 head gives float32 features
    and cache. A row whose pre-normalization norm is inf, NaN or below
    ``NORM_FLOOR`` raises ``TrainingDiverged`` naming the first such row of
    ``X``. A norm that overflows is inf, which in float32 happens once it
    passes about 1.8e19; ``train_one`` and ``evaluate`` turn off numpy's
    warning about it, since this check names the row, but a direct call
    still warns.
    """
    X = np.asarray(X, dtype=head.W1.dtype)
    A = X @ head.W1.T
    A += head.b1
    mask = A > 0.0
    H = np.maximum(A, 0.0, out=A)
    Y = H @ head.W2.T
    Y += head.b2
    norms = np.linalg.norm(Y, axis=1, keepdims=True)
    bad = (norms < NORM_FLOOR) | ~np.isfinite(norms)
    if bad.any():
        row = int(np.argmax(bad))
        raise TrainingDiverged(f"degenerate pre-normalization feature at row {row} "
                               f"(norm {float(norms[row, 0])}, not a finite value >= 1e-12)")
    Z = np.divide(Y, norms, out=Y)
    return Z, (mask, H, norms, Z)


def forward(head: ProjectionHead, X: np.ndarray) -> np.ndarray:
    """Map inputs to unit-norm features: normalize(W2 relu(W1 x + b1) + b2).
    The first output of ``forward_cached``, under the same row-norm check."""
    return forward_cached(head, X)[0]


def backward(
    head: ProjectionHead, X: np.ndarray, grad_out: np.ndarray, acts: tuple
) -> dict[str, np.ndarray]:
    """Exact parameter gradients for ``grad_out`` = dL/d(normalized features).

    ``acts`` is the cache ``forward_cached(head, X)`` returned for these
    parameters. The pass computes in the dtype of that cache, which is the
    head's: ``X`` and ``grad_out`` are cast to it, so a float32 ``grad_out``
    is upcast for a float64 head, and the gradients come back in that dtype.
    The row-normalization Jacobian is (I - z z^T) / ||y|| at pre-normalized
    y.
    """
    mask, H, norms, Z = acts
    X = np.asarray(X, dtype=Z.dtype)
    grad_out = np.asarray(grad_out, dtype=Z.dtype)

    gY = np.sum(grad_out * Z, axis=1, keepdims=True) * Z
    np.subtract(grad_out, gY, out=gY)
    gY /= norms
    gW2 = gY.T @ H
    gb2 = gY.sum(axis=0)
    gA = gY @ head.W2
    gA *= mask
    gW1 = gA.T @ X
    gb1 = gA.sum(axis=0)
    return {"W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}


def predict_probs(features: np.ndarray, protos: Prototypes, tau_p: float) -> np.ndarray:
    """Row-stochastic class probabilities: softmax over cosine / tau_p.

    Callers pass unit-norm feature rows (the forward contract guarantees it).
    """
    logits = features @ protos.M.T
    logits /= tau_p
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits, out=logits)
    e /= e.sum(axis=1, keepdims=True)
    return e


def labeled_class_means(
    features: np.ndarray, labels: np.ndarray, is_labeled: np.ndarray
) -> np.ndarray:
    """Normalized mean of the labeled features of each labeled class, one row
    per class in ascending id order. A mean that cancels to zero falls back
    to the class's first labeled row."""
    labeled = features[is_labeled]
    _, first, groups = np.unique(labels[is_labeled], return_index=True, return_inverse=True)
    return normalized_group_means(labeled, groups, len(first), labeled[first])[0]


def init_prototypes(
    features: np.ndarray,
    labels: np.ndarray,
    is_labeled: np.ndarray,
    num_classes: int,
    rng: np.random.Generator,
) -> Prototypes:
    """Known prototypes are normalized labeled class means; unknown ones are
    k-means++ seeded from unlabeled features, steered away from the knowns.

    The known classes are the classes of the labeled rows, whatever their
    ids; the k-means++ picks fill the remaining rows in ascending id order.
    """
    known = np.unique(labels[is_labeled])
    known_M = labeled_class_means(features, labels, is_labeled)
    unknown_M = kmeans_pp_extend(features[~is_labeled], known_M, num_classes - len(known), rng)
    M = np.empty((num_classes, features.shape[1]))
    M[known] = known_M
    M[np.setdiff1d(np.arange(num_classes), known)] = unknown_M
    return Prototypes(M=M)


def update_prototypes(
    features: np.ndarray,
    assignments: np.ndarray,
    labels: np.ndarray,
    is_labeled: np.ndarray,
    protos: Prototypes,
    ema: float,
) -> Prototypes:
    """Blend each prototype toward its current target and re-normalize.

    Known-class targets are normalized labeled feature means; unknown-class
    targets are normalized means of the unlabeled features argmax-assigned to
    that class (prototype left unchanged when no such rows exist).
    """
    # an unlabeled row counts only toward a class with no labeled rows
    unlabeled_group = np.where(np.isin(assignments, labels[is_labeled]), -1, assignments)
    groups = np.where(is_labeled, labels, unlabeled_group)
    targets, counts = normalized_group_means(features, groups, protos.num_classes, protos.M)
    new_M = np.array(protos.M, copy=True)
    for c in np.flatnonzero(counts):
        blend = ema * protos.M[c] + (1.0 - ema) * targets[c]
        norm = np.linalg.norm(blend)
        if norm >= NORM_FLOOR:
            new_M[c] = blend / norm
    return Prototypes(M=new_M)


def learning_rate(lr0: float, epoch: int, total_epochs: int) -> float:
    """Step schedule: multiply by 0.1 at each passed milestone (50%, 75%).
    A milestone is never before epoch 1, so epoch 0 trains at ``lr0`` even
    in a run of one epoch."""
    milestones = (max(1, int(0.5 * total_epochs)), max(1, int(0.75 * total_epochs)))
    passed = sum(1 for m in milestones if epoch >= m)
    return lr0 * (0.1 ** passed)


def sgd_step(
    head: ProjectionHead,
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    hp: Hyperparams,
) -> None:
    """Momentum SGD with L2 weight decay added to the gradient, in place on
    ``head`` and ``velocity``:
    v <- momentum v + g + weight_decay p;  p <- p - lr v."""
    for name, param in head.params().items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient for {name}")
        v = velocity[name]
        v *= hp.momentum
        v += g + hp.weight_decay * param
        param -= lr * v


def save_checkpoint(path: str | Path, head: ProjectionHead, protos: Prototypes) -> None:
    """Write the arrays of ``CHECKPOINT_LAYOUT`` as an uncompressed npz to
    exactly ``path``, whatever its suffix. The zip members carry a fixed
    date, so a model always gives the same bytes."""
    with open(path, "wb") as fh:   # np.savez appends .npz to a path, not to a file
        np.savez(fh, **{name: np.asarray(arr, dtype=np.float64) for name, arr in
                        {**head.params(), "prototypes": protos.M}.items()})


def load_checkpoint(path: str | Path) -> tuple[ProjectionHead, Prototypes]:
    """The head and prototypes of a checkpoint npz: ``read_npz`` of
    ``CHECKPOINT_LAYOUT``, then shapes that agree and finite values. Every
    failure is a ``DataFormatError`` that names ``path``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint file not found: {path}")
    arrays = read_npz(path, CHECKPOINT_LAYOUT)
    # (h, d) input layer, (p, h) output layer, C prototypes of width p; each
    # dimension is fixed by the first array that has it
    sizes: dict[str, int] = {}
    for name, dims in {"W1": "hd", "b1": "h", "W2": "ph", "b2": "p", "prototypes": "Cp"}.items():
        shape = arrays[name].shape
        for dim, n in zip(dims, shape):
            sizes.setdefault(dim, n)
        expected = [sizes.get(dim, "?") for dim in dims]
        if list(shape) != expected:
            raise DataFormatError(
                f"{path}: {name} has shape {list(shape)}, expected "
                f"({', '.join(dims)}) = {expected}"
            )
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{path}: {name} has a non-finite value")
    try:
        protos = Prototypes(M=arrays["prototypes"])
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return ProjectionHead(**{name: arrays[name] for name in PARAM_NAMES}), protos
