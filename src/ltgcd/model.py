"""Projection head, prototype classifier, and SGD with milestone decay.

The head is a two-layer MLP whose output rows are L2-normalized; forward and
backward passes are written out explicitly so gradients stay inspectable and
finite-difference checkable. Class probabilities come from a temperature
softmax over cosine similarities to per-class unit prototypes.
"""

from __future__ import annotations

import base64
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import NORM_FLOOR, kmeans_pp_extend, normalized_group_means
from .config import Hyperparams
from .errors import DataFormatError, TrainingDiverged, ValidationError

PARAM_NAMES = ("W1", "b1", "W2", "b2")
CHECKPOINT_FORMAT = "ltgcd-checkpoint-v1"


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

    A row whose pre-normalization norm is inf, NaN or below ``NORM_FLOOR``
    raises ``TrainingDiverged`` naming the first such row of ``X``. A norm
    that overflows is inf; ``train_one`` and ``evaluate`` turn off numpy's
    warning about it, since this check names the row, but a direct call
    still warns.
    """
    X = np.asarray(X, dtype=np.float64)
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
    head: ProjectionHead,
    X: np.ndarray,
    grad_out: np.ndarray,
    acts: tuple | None = None,
) -> dict[str, np.ndarray]:
    """Exact parameter gradients for ``grad_out`` = dL/d(normalized features).

    ``acts`` is the cache ``forward_cached(head, X)`` returned for these
    parameters; without it the forward pass is run again. A float32
    ``grad_out`` is upcast, so the pass runs in float64. The
    row-normalization Jacobian is (I - z z^T) / ||y|| at pre-normalized y.
    """
    X = np.asarray(X, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if acts is None:
        _, acts = forward_cached(head, X)
    mask, H, norms, Z = acts

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
    """Step schedule: multiply by 0.1 at each passed milestone (50%, 75%)."""
    milestones = (int(0.5 * total_epochs), int(0.75 * total_epochs))
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
    """JSON checkpoint: shapes plus base64 little-endian float64 buffers."""
    def pack(arr: np.ndarray) -> dict:
        buf = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        return {"shape": list(arr.shape), "data": base64.b64encode(buf).decode("ascii")}

    payload = {
        "format": CHECKPOINT_FORMAT,
        "params": {name: pack(arr) for name, arr in head.params().items()},
        "prototypes": pack(protos.M),
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_checkpoint(path: str | Path) -> tuple[ProjectionHead, Prototypes]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if type(payload) is not dict:
        raise DataFormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(
            f"{path}: format is {payload.get('format')!r}, expected {CHECKPOINT_FORMAT!r}"
        )
    params = payload.get("params", {})
    if type(params) is not dict:
        raise DataFormatError(f"{path}: entry 'params' is not an object")

    def unpack(name: str, entry) -> np.ndarray:
        if entry is None:
            raise DataFormatError(f"{path}: missing entry {name!r}")
        try:
            raw = base64.b64decode(entry["data"])
            # JSON integers only: int() would truncate 2.7 and take "3"
            shape = [operator.index(n) for n in entry["shape"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(
                f"{path}: entry {name!r} is not a shape/data pair ({exc!r})") from exc
        if min(shape, default=0) < 0 or 8 * math.prod(shape) != len(raw):
            raise DataFormatError(
                f"{path}: {name} has shape {shape} but {len(raw)} bytes of float64 data"
            )
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{path}: {name} has a non-finite value")
        return arr

    arrays = {name: unpack(name, params.get(name)) for name in PARAM_NAMES}
    arrays["prototypes"] = unpack("prototypes", payload.get("prototypes"))
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
    head = ProjectionHead(**{name: arrays[name] for name in PARAM_NAMES})
    return head, Prototypes(M=arrays["prototypes"])
