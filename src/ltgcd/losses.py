"""Contrastive objectives and distribution regularizers with exact gradients.

All gradients are taken with respect to the unit-norm feature rows; chaining
into head parameters happens in ``model.backward``. Prototypes are treated as
constants inside a gradient step, so the regularizers steer features only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Hyperparams
from .errors import ValidationError
from .model import Prototypes, predict_probs
from .prior import check_simplex

_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class BatchViews:
    """Interleaved two-view features: rows 2i and 2i+1 belong to instance i."""

    Z: np.ndarray             # (2B, p) unit-norm rows
    labeled_mask: np.ndarray  # (B,) bool
    labels: np.ndarray        # (B,) int, meaningful where labeled

    def __post_init__(self) -> None:
        B2 = self.Z.shape[0]
        if B2 % 2 != 0 or B2 // 2 != self.labeled_mask.shape[0]:
            raise ValidationError("Z must hold two views per instance")
        if self.labels.shape != self.labeled_mask.shape:
            raise ValidationError("labels and labeled_mask must align")
        norms = np.linalg.norm(self.Z, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-4):
            raise ValidationError("feature rows must be unit-norm")

    @property
    def num_instances(self) -> int:
        return self.labeled_mask.shape[0]


@dataclass(frozen=True)
class LossBreakdown:
    l_ins: float
    l_sup: float
    h_prior: float
    h_uniform: float
    l_overall: float
    grad_Z: np.ndarray        # (2B, p)
    sup_warning: bool = False


def combine_overall(
    l_ins: float, l_sup: float, h_prior: float, h_uniform: float, hp: Hyperparams
) -> float:
    """The one place the weighted sum is spelled out, so tests can replay it."""
    return l_ins + hp.lambda_ * l_sup + hp.alpha * h_prior + hp.beta * h_uniform


def _view_rows(instance_idx: np.ndarray) -> np.ndarray:
    """Row indices of both views for the given instance indices, interleaved."""
    return np.stack([2 * instance_idx, 2 * instance_idx + 1], axis=1).reshape(-1)


def _log_softmax_off_diag(S: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over all off-diagonal entries; diagonal is -inf.

    Works in place: ``S`` is overwritten with the result and returned, so
    callers pass a fresh Gram matrix they do not need afterwards. The softmax
    weights the gradients need are recomputed as ``exp(log_probs)`` rather
    than taken as the shifted exponentials over their sum: the two differ in
    the last bit, and over hundreds of SGD steps that bit moves the trained
    head and its metrics.
    """
    np.fill_diagonal(S, -np.inf)
    row_max = S.max(axis=1, keepdims=True)
    shifted = S - row_max
    np.exp(shifted, out=shifted)
    logsum = np.log(shifted.sum(axis=1, keepdims=True))
    logsum += row_max
    S -= logsum
    return S


def _scaled_gram(Z: np.ndarray, tau: float) -> np.ndarray:
    S = Z @ Z.T
    S /= tau
    return S


def _contrast_grad(G: np.ndarray, Z: np.ndarray, tau: float) -> np.ndarray:
    """dL/dZ = (G + G^T) Z / tau for the anchor-by-row weights ``G``
    (overwritten with G + G^T)."""
    G += G.T
    grad = G @ Z
    grad /= tau
    return grad


def info_nce(Z: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Instance discrimination over interleaved view pairs.

    Each view is an anchor; its positive is the sibling view and the
    denominator runs over every other view in ``Z`` (positive included,
    anchor excluded). Returns the mean anchor loss and dL/dZ.

    Bit for bit this is ``sup_con(Z, np.repeat(np.arange(m // 2), 2), tau)``;
    it keeps its own path because indexing the one positive per row avoids
    the m x m mask and its temporaries.
    """
    m = Z.shape[0]
    if m < 4 or m % 2 != 0:
        raise ValidationError("info_nce needs at least 2 two-view instances")
    log_probs = _log_softmax_off_diag(_scaled_gram(Z, tau))

    rows = np.arange(m)
    pos = rows ^ 1   # sibling of row a under interleaving
    value = float(-log_probs[rows, pos].mean())

    # softmax over k != a; the -inf diagonal exponentiates to exactly 0
    G = np.exp(log_probs, out=log_probs)
    G[rows, pos] -= 1.0
    G /= m
    return value, _contrast_grad(G, Z, tau)


def sup_con(Z: np.ndarray, view_labels: np.ndarray, tau: float) -> tuple[float, np.ndarray, bool]:
    """Label-supervised contrast over labeled view rows.

    Positives of an anchor are all other rows sharing its label (sibling view
    included); the denominator is every other row. Anchors with no positive
    are dropped from the outer mean; if none has a positive the value is 0
    and the warning flag is set.
    """
    m = Z.shape[0]
    if m < 2:
        raise ValidationError("sup_con needs at least 2 labeled views")
    view_labels = np.asarray(view_labels)
    pos_mask = view_labels[:, None] == view_labels[None, :]
    np.fill_diagonal(pos_mask, False)
    pos_counts = pos_mask.sum(axis=1)
    contributing = pos_counts > 0
    n_anchors = int(contributing.sum())
    if n_anchors == 0:
        return 0.0, np.zeros_like(Z), True

    log_probs = _log_softmax_off_diag(_scaled_gram(Z, tau))
    denom = np.maximum(pos_counts, 1)
    # copy only positives: -inf off-positive entries must not touch the sum
    # (0 * -inf is nan)
    G = np.zeros_like(log_probs)
    np.copyto(G, log_probs, where=pos_mask)
    per_anchor = -G.sum(axis=1) / denom
    value = float(per_anchor[contributing].mean())

    np.exp(log_probs, out=G)
    np.subtract(G, (1.0 / denom)[:, None], out=G, where=pos_mask)
    G[~contributing] = 0.0
    G /= n_anchors
    return value, _contrast_grad(G, Z, tau), False


def _cross_entropy_unchecked(q_bar: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    clamped = np.maximum(q_bar, _LOG_FLOOR)
    value = float(-(target * np.log(clamped)).sum())
    grad = -target / clamped
    return value, grad


def target_cross_entropy(q_bar: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy of a mean prediction against a fixed target distribution.

    value = -sum_c target_c log q_bar_c with q_bar clamped at 1e-12 below;
    gradient is -target / clamped(q_bar). Minimized exactly at q_bar = target.
    """
    q_bar = np.asarray(q_bar, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    check_simplex(q_bar, "q_bar")
    check_simplex(target, "target")
    return _cross_entropy_unchecked(q_bar, target)


def overall_loss(
    batch: BatchViews,
    protos: Prototypes,
    prior_r: np.ndarray,
    hp: Hyperparams,
) -> LossBreakdown:
    """Full objective on one batch: instance contrast on unlabeled views,
    supervised contrast on labeled views, plus cross-entropy of the mean
    unlabeled prediction against the estimated prior and against uniform."""
    labeled_idx = np.flatnonzero(batch.labeled_mask)
    unlabeled_idx = np.flatnonzero(~batch.labeled_mask)
    if len(unlabeled_idx) < 2:
        raise ValidationError("overall_loss needs at least 2 unlabeled instances")

    unlab_rows = _view_rows(unlabeled_idx)
    lab_rows = _view_rows(labeled_idx)
    Z_unlab = batch.Z[unlab_rows]
    grad_Z = np.zeros_like(batch.Z)

    l_ins, g_ins = info_nce(Z_unlab, hp.tau)
    grad_Z[unlab_rows] += g_ins

    sup_warning = False
    l_sup = 0.0
    if len(lab_rows) >= 2:
        l_sup, g_sup, sup_warning = sup_con(
            batch.Z[lab_rows], np.repeat(batch.labels[labeled_idx], 2), hp.tau
        )
        grad_Z[lab_rows] += hp.lambda_ * g_sup

    # q_bar is a mean of softmax rows and the targets carry their own simplex
    # invariants, so the unchecked path is safe here
    Q = predict_probs(Z_unlab, protos, hp.tau_p)
    q_bar = Q.mean(axis=0)
    uniform = np.full(protos.num_classes, 1.0 / protos.num_classes)
    h_prior, g_prior = _cross_entropy_unchecked(q_bar, prior_r)
    h_uniform, g_uniform = _cross_entropy_unchecked(q_bar, uniform)

    g_q = (hp.alpha * g_prior + hp.beta * g_uniform) / len(unlab_rows)
    # chain through the softmax rows onto features; prototypes stay constant
    inner = Q * g_q[None, :]
    A = inner - Q * inner.sum(axis=1, keepdims=True)
    grad_Z[unlab_rows] += (A @ protos.M) / hp.tau_p

    l_overall = combine_overall(l_ins, l_sup, h_prior, h_uniform, hp)
    return LossBreakdown(
        l_ins=l_ins,
        l_sup=l_sup,
        h_prior=h_prior,
        h_uniform=h_uniform,
        l_overall=l_overall,
        grad_Z=grad_Z,
        sup_warning=sup_warning,
    )
