"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The trend criteria share one module-scoped batch of training runs
(four configurations, three seeds each, desk-scale split).
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from support import rel_error, unit_rows

from ltgcd.config import Hyperparams, SplitSpec
from ltgcd.data import generate_mixture
from ltgcd.evaluation import evaluate, hungarian, matched_accuracy
from ltgcd.harness import train_one
from ltgcd.losses import overall_loss
from ltgcd.model import (
    ProjectionHead,
    Prototypes,
    backward,
    forward,
    forward_cached,
    init_head,
    predict_probs,
)
from ltgcd.prior import ema_update, hard_histogram
from ltgcd.rng import derive_stream

SEEDS = (0, 1, 2)
TREND_SPLIT = SplitSpec()          # C=20, known=10, n_k=200, rho=5, d=64
TREND_HP = Hyperparams(epochs=60, batch_size=256)
TREND_CELLS = ((0.0, 0.0), (0.0, 2.0), (0.0, 5.0), (1.0, 2.0))   # (alpha, beta)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def trend_results():
    """Mean metrics per (alpha, beta) cell over the shared seeds."""
    t0 = time.monotonic()
    cells = {}
    for alpha, beta in TREND_CELLS:
        metrics = {"all": [], "known": [], "un1": [], "un2": []}
        for seed in SEEDS:
            data = generate_mixture(TREND_SPLIT, 5.0, derive_stream(seed, "split"))
            hp = replace(TREND_HP, alpha=alpha, beta=beta, seed=seed)
            record = train_one(data, hp)
            assert record.status == "ok", record.error
            metrics["all"].append(record.metrics.all_acc)
            metrics["known"].append(record.metrics.known_acc)
            metrics["un1"].append(record.metrics.un1_acc)
            metrics["un2"].append(record.metrics.un2_acc)
        cells[(alpha, beta)] = {k: float(np.mean(v)) for k, v in metrics.items()}
    cells["elapsed"] = time.monotonic() - t0
    return cells


def test_criterion_1_gradient_correctness():
    """Every loss gradient matches central finite differences (20 configs)."""
    from ltgcd.losses import _view_rows, info_nce, sup_con, target_cross_entropy

    t0 = time.monotonic()
    h = 1e-5
    worst = 0.0

    def fd_sweep(f, x):
        grad = np.zeros_like(x)
        flat, flat_grad = x.reshape(-1), grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = f(x)
            flat[k] = orig - h
            dn = f(x)
            flat[k] = orig
            flat_grad[k] = (up - dn) / (2 * h)
        return grad

    for trial in range(20):
        rng = derive_stream(1000 + trial, "grad-check")
        B, p, C = 8, 16, 4
        Z = unit_rows(rng, 2 * B, p)
        labeled_mask = np.zeros(B, dtype=bool)
        labeled_mask[:3] = True
        labels = rng.integers(0, 2, size=B)
        protos = Prototypes(M=unit_rows(rng, C, p))
        raw = rng.random(C) + 0.1
        prior = raw / raw.sum()
        uniform = np.full(C, 1.0 / C)
        hp = Hyperparams(lambda_=0.8, alpha=0.6, beta=1.4)

        unlab_rows = _view_rows(np.flatnonzero(~labeled_mask))
        lab_rows = _view_rows(np.flatnonzero(labeled_mask))
        view_labels = np.repeat(labels[labeled_mask], 2)
        base = overall_loss(Z, labeled_mask, labels, protos, prior, hp)

        # instance contrast
        _, g_ins = info_nce(Z[unlab_rows], hp.tau)
        fd = fd_sweep(lambda z: info_nce(z, hp.tau)[0], np.array(Z[unlab_rows]))
        worst = max(worst, rel_error(fd, g_ins))

        # supervised contrast
        _, g_sup, _ = sup_con(Z[lab_rows], view_labels, hp.tau)
        fd = fd_sweep(lambda z: sup_con(z, view_labels, hp.tau)[0],
                      np.array(Z[lab_rows]))
        worst = max(worst, rel_error(fd, g_sup))

        # weighted regularizer composite, chained through softmax and mean
        def reg_value(zu):
            q_bar = predict_probs(zu, protos, hp.tau_p).mean(axis=0)
            return (hp.alpha * target_cross_entropy(q_bar, prior)[0]
                    + hp.beta * target_cross_entropy(q_bar, uniform)[0])

        g_reg = np.array(base.grad_Z[unlab_rows]) - g_ins
        fd = fd_sweep(reg_value, np.array(Z[unlab_rows]))
        worst = max(worst, rel_error(fd, g_reg))

        # full objective, end to end through the projection head
        def overall_value(z):
            return overall_loss(z, labeled_mask, labels, protos, prior, hp).l_overall

        rng2 = derive_stream(2000 + trial, "grad-check")
        head = init_head(16, 16, 16, rng2)
        X = rng2.standard_normal((2 * B, 16))
        Zh, acts = forward_cached(head, X)
        bd = overall_loss(Zh, labeled_mask, labels, protos, prior, hp)
        analytic_params = backward(head, X, bd.grad_Z, acts)

        for name, value in head.params().items():
            # fd_sweep mutates the parameter array the head holds, so the
            # closure sees each perturbation through forward()
            fd = fd_sweep(lambda _x: overall_value(forward(head, X)), value)
            worst = max(worst, rel_error(fd, analytic_params[name]))

        assert worst <= 1e-4

    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    report(1, ok, f"gradients vs finite differences: worst rel err {worst:.2e}, "
                  f"{elapsed:.1f}s (< 10 s)")


def test_criterion_2_assignment_oracle():
    """Optimal assignment equals the exhaustive-permutation minimum."""
    t0 = time.monotonic()
    rng = derive_stream(77, "assignment")
    for n in range(2, 9):
        perms = np.array(list(itertools.permutations(range(n))))
        rows = np.arange(n)
        for _ in range(100):
            cost = rng.random((n, n))
            pi = hungarian(cost)
            optimal = float(cost[rows, pi].sum())
            brute = float(cost[rows[None, :], perms].sum(axis=1).min())
            assert optimal == pytest.approx(brute, abs=1e-12)
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    report(2, ok, f"assignment equals brute force on 700 instances, "
                  f"{elapsed:.1f}s (< 5 s)")


def test_criterion_3_prior_dynamics():
    """Closed-form EMA recursion and convergence to the true frequencies."""
    mu = 0.99
    r0 = np.array([0.55, 0.25, 0.12, 0.08])
    z = np.array([0.1, 0.2, 0.3, 0.4])
    r = r0
    for _ in range(100):
        r = ema_update(r, z, mu)
    closed_form = mu**100 * r0 + (1 - mu**100) * z
    closed_err = float(np.max(np.abs(r - closed_form)))

    spec = SplitSpec(num_classes=5, num_known=2, samples_per_known=80,
                     rho=4.0, dim=16)
    data = generate_mixture(spec, 50.0, derive_stream(0, "split"))
    means = np.stack([data.points[data.labels == c].mean(axis=0) for c in range(5)])
    protos = Prototypes(M=means / np.linalg.norm(means, axis=1, keepdims=True))
    unlab = data.unlabeled_indices
    feats = data.points[unlab] / np.linalg.norm(data.points[unlab], axis=1,
                                                keepdims=True)
    assignments = np.argmax(predict_probs(feats, protos, tau_p=0.05), axis=1)
    assert np.array_equal(assignments, data.labels[unlab]), \
        "classifier must be perfect on this separable split"
    z_hist = hard_histogram(assignments, 5)
    truth = np.bincount(data.labels[unlab], minlength=5) / len(unlab)

    r = np.full(5, 1 / 5)
    for _ in range(1000):
        r = ema_update(r, z_hist, 0.99)
    conv_err = float(np.max(np.abs(r - truth)))

    ok = closed_err <= 1e-12 and conv_err <= 1e-3
    report(3, ok, f"closed form err {closed_err:.1e} (<= 1e-12), "
                  f"convergence err {conv_err:.1e} (<= 1e-3)")


def test_criterion_4_metric_contracts():
    """Perfect clustering scores 1.0, matching absorbs permutations, and the
    five-point example scores exactly 0.8."""
    # every class sits exactly on its own coordinate axis, so any correct
    # metric pipeline must return exactly 1.0 on all four scores
    from ltgcd.data import EmbeddingDataset
    C, per_class = 6, 12
    labels = np.repeat(np.arange(C), per_class)
    points = np.eye(C)[labels]
    is_labeled = np.zeros(C * per_class, dtype=bool)
    for c in range(3):
        is_labeled[np.flatnonzero(labels == c)[: per_class // 2]] = True
    data = EmbeddingDataset(
        points=points, labels=labels, is_labeled=is_labeled, num_classes=C,
    )
    head = ProjectionHead(W1=np.eye(C), b1=np.zeros(C),
                          W2=np.eye(C), b2=np.zeros(C))
    rep = evaluate(head, data, seed=0)
    perfect = (rep.all_acc, rep.known_acc, rep.un1_acc, rep.un2_acc) == (1.0,) * 4

    rng = derive_stream(10, "metrics")
    y = rng.integers(0, 4, size=60)
    clusters = rng.integers(0, 4, size=60)
    base = matched_accuracy(y, clusters)
    invariant = all(
        matched_accuracy(y, np.array([perm[c] for c in clusters])) == pytest.approx(base)
        for perm in itertools.permutations(range(4))
    )

    worked = matched_accuracy(np.array([0, 0, 1, 1, 2]), np.array([1, 1, 0, 0, 0]))

    ok = perfect and invariant and worked == pytest.approx(0.8, abs=1e-12)
    report(4, ok, f"perfect={perfect}, permutation-invariant={invariant}, "
                  f"five-point example={worked:.3f} (= 0.8)")


def test_criterion_5_beta_trend(trend_results):
    """Raising the uniform-reweighting weight lifts novel-class accuracy and
    costs known accuracy."""
    un2_gain = trend_results[(0.0, 2.0)]["un2"] - trend_results[(0.0, 0.0)]["un2"]
    known_drop = trend_results[(0.0, 5.0)]["known"] - trend_results[(0.0, 0.0)]["known"]
    elapsed = trend_results["elapsed"]
    ok = un2_gain > 0.02 and known_drop < 0.0 and elapsed < 900.0
    report(5, ok, f"Un2(beta=2) - Un2(beta=0) = {un2_gain:+.3f} (> 0.02), "
                  f"Known(beta=5) - Known(beta=0) = {known_drop:+.3f} (< 0), "
                  f"runs took {elapsed:.0f}s (< 900 s)")


def test_criterion_6_alpha_trend(trend_results):
    """Raising the prior-alignment weight does not hurt known accuracy."""
    k0 = trend_results[(0.0, 2.0)]["known"]
    k1 = trend_results[(1.0, 2.0)]["known"]
    ok = k1 >= k0
    report(6, ok, f"Known(alpha=1, beta=2) = {k1:.3f} >= "
                  f"Known(alpha=0, beta=2) = {k0:.3f}")


def test_criterion_7_metric_ordering(trend_results):
    """Known >= Un1 >= Un2 at the default operating point (tolerance 0.02)."""
    cell = trend_results[(1.0, 2.0)]
    ok = (cell["known"] >= cell["un1"] - 0.02) and (cell["un1"] >= cell["un2"] - 0.02)
    report(7, ok, f"Known {cell['known']:.3f} >= Un1 {cell['un1']:.3f} >= "
                  f"Un2 {cell['un2']:.3f} (tolerance 0.02)")


def test_criterion_8_determinism(tmp_path):
    """A fixed plan reproduces results.csv byte for byte."""
    from ltgcd.harness import ExperimentPlan, sweep
    def run(where):
        plan = ExperimentPlan(
            hp=Hyperparams(epochs=2, batch_size=64, seed=0),
            split=SplitSpec(num_classes=6, num_known=3, samples_per_known=60,
                            rho=3.0, dim=16),
            rhos=(3.0,), alphas=(1.0,), betas=(0.0, 2.0), seeds=(0, 1),
            out_dir=where,
        )
        return sweep(plan)["results"].read_bytes()

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    ok = first == second
    report(8, ok, f"two sweep invocations produced identical results.csv "
                  f"({len(first)} bytes)")
