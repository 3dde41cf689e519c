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
    sup_warning = False       # read only by perfbench's losses.sup_warning.count


def combine_overall(
    l_ins: float, l_sup: float, h_prior: float, h_uniform: float, hp: Hyperparams
) -> float:
    """The one place the weighted sum is spelled out, so tests can replay it."""
    return l_ins + hp.lambda_ * l_sup + hp.alpha * h_prior + hp.beta * h_uniform


def _view_rows(instance_idx: np.ndarray) -> np.ndarray:
    """Row indices of both views for the given instance indices, interleaved."""
    return (2 * instance_idx[:, None] + [0, 1]).ravel()


def _contrast(Z: np.ndarray, pos: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Contrastive loss over the rows of ``Z`` with the given positives.

    ``pos`` holds the positive pairs as sorted flat indices ``anchor * m + col``
    into the m x m similarity matrix, never on its diagonal. Every row is an
    anchor and must have at least one positive; a row without one raises
    ``ValidationError``. Each anchor's denominator is every other row.
    Returns the mean anchor loss and dL/dZ, computed in the dtype of ``Z``.
    """
    m = Z.shape[0]
    anchors = pos // m
    pos_counts = np.bincount(anchors, minlength=m)
    if not pos_counts.all():
        raise ValidationError(f"row {int(np.argmin(pos_counts))} of the contrast has no positive")

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
    value = float(weights @ neg_log_probs) / m

    # dL/dZ = (G + G^T) Z / (tau m), G the softmax minus the weights
    G /= row_sums[:, None]
    G.ravel()[pos] -= weights
    grad = G @ Z
    grad += G.T @ Z
    grad /= tau * m
    return value, grad


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
    return _contrast(Z, rows * m + (rows ^ 1), tau)  # sibling under interleaving


def sup_con(Z: np.ndarray, view_labels: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Label-supervised contrast over labeled view rows.

    Positives of an anchor are all other rows sharing its label (sibling view
    included); the denominator is every other row. Every row must share its
    label with another row, which two views per labeled instance always give;
    a row that does not raises ``ValidationError``. Returns the mean anchor
    loss and dL/dZ.
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
    offload=None,
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

    The supervised contrast comes last. ``offload``, if given, is called
    with ``sup_con``'s arguments before the instance contrast starts, so
    another process can run it meanwhile; it returns a callable that gives
    that process's ``sup_con`` result, or None if that process is busy and
    the job is this one's.
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

    sup_args = None
    if len(lab_rows) >= 2:
        sup_args = (Z[lab_rows], np.repeat(labels[labeled_idx], 2), hp.tau)
    collect = offload(*sup_args) if offload is not None and sup_args is not None else None

    l_ins, g_ins = info_nce(Z_unlab, hp.tau)

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

    l_sup = 0.0
    if sup_args is not None:
        l_sup, g_sup = collect() if collect else sup_con(*sup_args)
        grad_Z[lab_rows] = hp.lambda_ * g_sup

    l_overall = combine_overall(l_ins, l_sup, h_prior, h_uniform, hp)
    return LossBreakdown(
        l_ins=l_ins,
        l_sup=l_sup,
        h_prior=h_prior,
        h_uniform=h_uniform,
        l_overall=l_overall,
        grad_Z=grad_Z,
    )
