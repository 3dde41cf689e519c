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

_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class Losses:
    """The objective's terms and their weighted sum, the one declaration that
    a batch's breakdown and an epoch's log extend."""

    l_ins: float
    l_sup: float
    h_prior: float
    h_uniform: float
    l_overall: float


@dataclass(frozen=True)
class LossBreakdown(Losses):
    grad_Z: np.ndarray        # (2B, p)
    sup_warning: bool = False


def combine_overall(
    l_ins: float, l_sup: float, h_prior: float, h_uniform: float, hp: Hyperparams
) -> float:
    """The one place the weighted sum is spelled out, so tests can replay it."""
    return l_ins + hp.lambda_ * l_sup + hp.alpha * h_prior + hp.beta * h_uniform


def _view_rows(instance_idx: np.ndarray) -> np.ndarray:
    """Row indices of both views for the given instance indices, interleaved."""
    return (2 * instance_idx[:, None] + [0, 1]).ravel()


def _contrast(Z: np.ndarray, pos: np.ndarray, tau: float) -> tuple[float, np.ndarray, bool]:
    """Contrastive loss over the rows of ``Z`` with the given positives.

    ``pos`` holds the positive pairs as sorted flat indices ``anchor * m + col``
    into the m x m similarity matrix, never on its diagonal. Each anchor's
    denominator is every other row. Anchors with no positive are dropped from
    the outer mean; if none has one the value is 0 and the flag is set.
    Returns the mean anchor loss, dL/dZ and that flag. The similarities and
    the gradient are computed in the dtype of ``Z``.
    """
    if len(pos) == 0:
        return 0.0, np.zeros_like(Z), True
    m = Z.shape[0]
    anchors = pos // m
    pos_counts = np.bincount(anchors, minlength=m)
    n_anchors = int(np.count_nonzero(pos_counts))

    # row-shifted similarities with a -inf diagonal, which exponentiates to
    # 0; the copy makes the Gram matrix a plain GEMM, which OpenBLAS runs
    # faster at desk batch shapes than the syrk path numpy takes for Z @ Z.T
    S = Z @ Z.T.copy()
    S /= tau
    S.ravel()[::m + 1] = -np.inf
    S -= S.max(axis=1, keepdims=True)
    S_pos = S.ravel()[pos]
    # the one exp pass: its row sums give the log-sum-exp, and over those
    # sums it is the softmax of the gradient
    G = np.exp(S, out=S)
    row_sums = G.sum(axis=1)

    # each positive weighs 1 / (its anchor's positives) in the anchor's mean
    weights = 1.0 / pos_counts[anchors]
    neg_log_probs = np.log(row_sums)[anchors] - S_pos
    value = float(weights @ neg_log_probs) / n_anchors

    # dL/dZ = (G + G^T) Z / (tau n_anchors), G the softmax minus the weights
    G /= row_sums[:, None]
    G.ravel()[pos] -= weights
    if n_anchors < m:
        G[pos_counts == 0] = 0.0
    grad = G @ Z
    grad += G.T @ Z
    grad /= tau * n_anchors
    return value, grad, False


def info_nce(Z: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Instance discrimination over interleaved view pairs.

    Each view is an anchor; its positive is the sibling view and the
    denominator runs over every other view in ``Z`` (positive included,
    anchor excluded). Returns the mean anchor loss and dL/dZ.
    """
    m = Z.shape[0]
    if m < 4 or m % 2 != 0:
        raise ValidationError("info_nce needs at least 2 two-view instances")
    rows = np.arange(m)
    value, grad, _ = _contrast(Z, rows * m + (rows ^ 1), tau)  # sibling under interleaving
    return value, grad


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
    same = view_labels[:, None] == view_labels[None, :]
    np.fill_diagonal(same, False)
    return _contrast(Z, np.flatnonzero(same), tau)


def target_cross_entropy(q_bar: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy of a mean prediction against a fixed target distribution.

    value = -sum_c target_c log q_bar_c with q_bar clamped at 1e-12 below;
    gradient is -target / clamped(q_bar). Minimized exactly at q_bar = target.
    The inputs are not checked: ``overall_loss`` passes a mean of softmax rows
    and targets that hold their own simplex invariants.
    """
    clamped = np.maximum(q_bar, _LOG_FLOOR)
    value = float(-(target * np.log(clamped)).sum())
    grad = -target / clamped
    return value, grad


def overall_loss(
    Z: np.ndarray,
    labeled_mask: np.ndarray,
    labels: np.ndarray,
    protos: Prototypes,
    prior_r: np.ndarray,
    hp: Hyperparams,
) -> LossBreakdown:
    """Full objective on one batch: instance contrast on unlabeled views,
    supervised contrast on labeled views, plus cross-entropy of the mean
    unlabeled prediction against the estimated prior and against uniform.

    ``Z`` holds two views per instance, interleaved as ``make_views`` makes
    them (rows 2i and 2i+1 are the views of instance i), in unit-norm rows as
    ``forward_cached`` makes them; no norm is checked here. ``train_one``
    passes the float32 rows of its float32 step. The contrastive losses and
    ``grad_Z`` take the dtype of ``Z``; the regularizers compute in float64,
    against the float64 prototypes.
    """
    if Z.shape[0] != 2 * labeled_mask.shape[0]:
        raise ValidationError("Z must hold two views per instance")
    if labels.shape != labeled_mask.shape:
        raise ValidationError("labels and labeled_mask must align")
    labeled_idx = np.flatnonzero(labeled_mask)
    unlabeled_idx = np.flatnonzero(~labeled_mask)
    if len(unlabeled_idx) < 2:
        raise ValidationError("overall_loss needs at least 2 unlabeled instances")

    unlab_rows = _view_rows(unlabeled_idx)
    lab_rows = _view_rows(labeled_idx)
    Z_unlab = Z[unlab_rows]
    # the unlabeled and labeled rows partition Z, so each block is set once
    grad_Z = np.zeros_like(Z)

    l_ins, g_ins = info_nce(Z_unlab, hp.tau)

    sup_warning = False
    l_sup = 0.0
    if len(lab_rows) >= 2:
        l_sup, g_sup, sup_warning = sup_con(
            Z[lab_rows], np.repeat(labels[labeled_idx], 2), hp.tau
        )
        grad_Z[lab_rows] = hp.lambda_ * g_sup

    Q = predict_probs(Z_unlab, protos, hp.tau_p)
    q_bar = Q.mean(axis=0)
    uniform = np.full(protos.num_classes, 1.0 / protos.num_classes)
    h_prior, g_prior = target_cross_entropy(q_bar, prior_r)
    h_uniform, g_uniform = target_cross_entropy(q_bar, uniform)

    g_q = (hp.alpha * g_prior + hp.beta * g_uniform) / len(unlab_rows)
    # chain through the softmax rows onto features; prototypes stay constant
    inner = Q * g_q[None, :]
    A = inner - Q * inner.sum(axis=1, keepdims=True)
    grad_Z[unlab_rows] = g_ins + (A @ protos.M) / hp.tau_p

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
