"""Contrastive losses and regularizers against brute-force and FD oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import finite_diff, random_orthogonal, random_simplex, rel_error, unit_rows

from ltgcd.config import Hyperparams
from ltgcd.errors import ValidationError
from ltgcd.losses import (
    combine_overall,
    info_nce,
    overall_loss,
    sup_con,
    target_cross_entropy,
)
from ltgcd.model import Prototypes, forward, forward_cached, init_head
from ltgcd.rng import derive_stream


def brute_force_info_nce(Z, tau):
    """Independent oracle: plain loops over anchors and denominators."""
    m = Z.shape[0]
    total = 0.0
    for a in range(m):
        pos = a + 1 if a % 2 == 0 else a - 1
        num = math.exp(float(Z[a] @ Z[pos]) / tau)
        den = sum(math.exp(float(Z[a] @ Z[k]) / tau) for k in range(m) if k != a)
        total += -math.log(num / den)
    return total / m


def brute_force_sup_con(Z, labels, tau):
    m = Z.shape[0]
    per_anchor = []
    for i in range(m):
        positives = [q for q in range(m) if q != i and labels[q] == labels[i]]
        den = sum(math.exp(float(Z[i] @ Z[k]) / tau) for k in range(m) if k != i)
        term = sum(
            -math.log(math.exp(float(Z[i] @ Z[q]) / tau) / den) for q in positives
        ) / len(positives)
        per_anchor.append(term)
    return sum(per_anchor) / m


class TestInfoNce:
    def test_two_orthogonal_instances_identical_views(self):
        # 4 anchors, each with denominator e + 2; loss = -log(e / (e + 2))
        Z = np.array([
            [1.0, 0.0], [1.0, 0.0],
            [0.0, 1.0], [0.0, 1.0],
        ])
        value, _ = info_nce(Z, tau=1.0)
        expected = -math.log(math.e / (math.e + 2.0))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.5514, abs=1e-4)

    def test_matches_brute_force_on_random_batches(self):
        for trial in range(5):
            rng = derive_stream(200 + trial, "test")
            Z = unit_rows(rng, 12, 6)
            value, _ = info_nce(Z, tau=0.3)
            assert value == pytest.approx(brute_force_info_nce(Z, 0.3), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        for trial in range(10):
            rng = derive_stream(300 + trial, "test")
            Z = unit_rows(rng, 8, 5)
            _, grad = info_nce(Z, tau=0.5)
            fd = finite_diff(lambda z: info_nce(z, tau=0.5)[0], Z, h=1e-5)
            assert rel_error(grad, fd) <= 1e-4

    def test_loss_is_nonnegative(self):
        for trial in range(20):
            rng = derive_stream(400 + trial, "test")
            Z = unit_rows(rng, 2 * int(rng.integers(2, 9)), 7)
            value, _ = info_nce(Z, tau=float(rng.uniform(0.05, 2.0)))
            assert value >= 0.0

    def test_rotation_invariance(self):
        rng = derive_stream(5, "test")
        Z = unit_rows(rng, 10, 6)
        Q = random_orthogonal(rng, 6)
        v1, _ = info_nce(Z, tau=0.2)
        v2, _ = info_nce(Z @ Q, tau=0.2)
        assert abs(v1 - v2) <= 1e-9

    def test_fewer_than_two_instances_rejected(self):
        Z = unit_rows(derive_stream(6, "test"), 2, 4)
        with pytest.raises(ValidationError):
            info_nce(Z, tau=0.5)


class TestSharedContrastCore:
    """info_nce is supervised contrast with one label per instance."""

    def test_info_nce_is_sup_con_with_instance_labels_bit_for_bit(self):
        for trial in range(10):
            rng = derive_stream(900 + trial, "test")
            B = int(rng.integers(2, 40))
            Z = unit_rows(rng, 2 * B, 8)
            tau = float(rng.uniform(0.05, 1.0))
            v_ins, g_ins = info_nce(Z, tau)
            v_sup, g_sup = sup_con(Z, np.repeat(np.arange(B), 2), tau)
            assert v_ins == v_sup
            assert g_ins.tobytes() == g_sup.tobytes()

    def test_losses_leave_caller_features_untouched(self):
        rng = derive_stream(17, "test")
        Z = unit_rows(rng, 12, 6)
        before = Z.tobytes()
        info_nce(Z, 0.3)
        sup_con(Z, rng.integers(0, 3, size=12), 0.3)
        assert Z.tobytes() == before

        (Z, *batch), protos, prior = _random_batch(rng)
        before = Z.tobytes()
        overall_loss(Z, *batch, protos, prior, Hyperparams(lambda_=0.8, alpha=0.6, beta=1.5))
        assert Z.tobytes() == before


class TestSupCon:
    def test_two_instances_same_label_equal_views(self):
        # every anchor has 3 positives, each term -log(e / 3e) = log 3
        u = np.array([1.0, 0.0])
        Z = np.tile(u, (4, 1))
        labels = np.array([0, 0, 0, 0])
        value, _ = sup_con(Z, labels, tau=1.0)
        assert value == pytest.approx(math.log(3.0), abs=1e-12)
        assert value == pytest.approx(1.0986, abs=1e-4)

    def test_matches_brute_force_on_random_batches(self):
        for trial in range(5):
            rng = derive_stream(500 + trial, "test")
            Z = unit_rows(rng, 10, 6)
            labels = np.repeat(rng.integers(0, 3, size=5), 2)   # sibling pairs
            value, _ = sup_con(Z, labels, tau=0.4)
            assert value == pytest.approx(brute_force_sup_con(Z, labels, 0.4), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        for trial in range(10):
            rng = derive_stream(600 + trial, "test")
            Z = unit_rows(rng, 8, 5)
            labels = np.repeat(rng.integers(0, 3, size=4), 2)   # sibling pairs
            _, grad = sup_con(Z, labels, tau=0.5)
            fd = finite_diff(lambda z: sup_con(z, labels, tau=0.5)[0], Z, h=1e-5)
            assert rel_error(grad, fd) <= 1e-4

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("labels, row", [([0, 0, 1, 1, 2], 4), ([0, 1, 2], 0),
                                             ([3, 1, 3, 2, 2], 1)],
                             ids=["last-row", "all-distinct", "inner-row"])
    def test_a_row_without_a_positive_is_rejected(self, dtype, labels, row):
        Z = unit_rows(derive_stream(8, "test"), len(labels), 4).astype(dtype)
        with pytest.raises(ValidationError, match=f"^row {row} of the contrast has no positive$"):
            sup_con(Z, np.array(labels), tau=0.7)

    def test_rotation_invariance(self):
        rng = derive_stream(9, "test")
        Z = unit_rows(rng, 8, 6)
        labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        Q = random_orthogonal(rng, 6)
        v1, _ = sup_con(Z, labels, tau=0.2)
        v2, _ = sup_con(Z @ Q, labels, tau=0.2)
        assert abs(v1 - v2) <= 1e-9


class TestFloat32:
    """Training passes float32 features; the losses then compute in float32."""

    @staticmethod
    def _close_to_float64(loss, Z32, tau):
        """The float32 call's value and gradient against the float64 call on
        the same (rounded) inputs."""
        v32, g32 = loss(Z32, tau)
        v64, g64 = loss(Z32.astype(np.float64), tau)
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert abs(v32 - v64) <= 1e-5 * abs(v64)
        assert rel_error(g32, g64) <= 1e-5

    def test_info_nce_float32_matches_float64(self):
        Z = unit_rows(derive_stream(30, "test"), 300, 32).astype(np.float32)
        self._close_to_float64(info_nce, Z, 0.1)

    def test_sup_con_float32_matches_float64(self):
        rng = derive_stream(31, "test")
        Z = unit_rows(rng, 214, 32).astype(np.float32)
        view_labels = np.repeat(rng.integers(0, 10, size=107), 2)
        self._close_to_float64(lambda z, tau: sup_con(z, view_labels, tau), Z, 0.1)

    def test_overall_loss_on_float32_batch_matches_float64(self):
        (Z, *batch), protos, prior = _random_batch(derive_stream(34, "test"), B=64, p=32, C=6)
        hp = Hyperparams(lambda_=0.8, alpha=0.6, beta=1.5)
        Z32 = Z.astype(np.float32)
        lb32 = overall_loss(Z32, *batch, protos, prior, hp)
        lb64 = overall_loss(Z32.astype(np.float64), *batch, protos, prior, hp)
        assert lb32.l_overall == pytest.approx(lb64.l_overall, rel=1e-5)
        assert rel_error(lb32.grad_Z, lb64.grad_Z) <= 1e-5


class TestTargetCrossEntropy:
    def test_equal_distributions_give_entropy(self):
        value, _ = target_cross_entropy(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_term_arithmetic(self):
        value, _ = target_cross_entropy(np.array([0.9, 0.1]), np.array([0.5, 0.5]))
        expected = -(0.5 * math.log(0.9) + 0.5 * math.log(0.1))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.2040, abs=1e-4)

    def test_degenerate_match_is_zero(self):
        value, _ = target_cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert value == 0.0

    def test_gradient_formula(self):
        q = np.array([0.2, 0.3, 0.5])
        t = np.array([0.1, 0.6, 0.3])
        _, grad = target_cross_entropy(q, t)
        assert np.allclose(grad, -t / q, atol=1e-12)

    def test_gradient_matches_simplex_directional_derivative(self):
        # perturb along sum-zero directions so inputs stay on the simplex
        rng = derive_stream(10, "test")
        for _ in range(10):
            q = random_simplex(rng, 5) * 0.8 + 0.04   # interior point
            q /= q.sum()
            t = random_simplex(rng, 5)
            _, grad = target_cross_entropy(q, t)
            d = rng.standard_normal(5)
            d -= d.mean()
            h = 1e-6
            vp, _ = target_cross_entropy(q + h * d, t)
            vm, _ = target_cross_entropy(q - h * d, t)
            assert (vp - vm) / (2 * h) == pytest.approx(float(grad @ d), rel=1e-5)

    def test_gibbs_inequality_at_random_points(self):
        # cross-entropy >= entropy of the target, equality only at q = t
        rng = derive_stream(11, "test")
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            q = random_simplex(rng, c)
            t = random_simplex(rng, c)
            value, _ = target_cross_entropy(q, t)
            entropy = -float(np.sum(t * np.log(t)))
            assert value >= entropy - 1e-12
        t = random_simplex(rng, 4)
        value, _ = target_cross_entropy(t, t)
        assert value == pytest.approx(-float(np.sum(t * np.log(t))), abs=1e-12)


def _random_batch(rng, B=8, p=16, C=4, n_labeled=3):
    """``(Z, labeled_mask, labels)`` of a random batch, its prototypes and prior."""
    Z = unit_rows(rng, 2 * B, p)
    labeled_mask = np.zeros(B, dtype=bool)
    labeled_mask[:n_labeled] = True
    labels = rng.integers(0, 2, size=B)   # labeled rows get known ids {0, 1}
    protos = Prototypes(M=unit_rows(rng, C, p))
    prior = random_simplex(rng, C)
    return (Z, labeled_mask, labels), protos, prior


class TestOverallLoss:
    def test_degenerate_weights_reduce_to_contrastive_sum(self):
        rng = derive_stream(12, "test")
        batch, protos, prior = _random_batch(rng)
        hp = Hyperparams(alpha=0.0, beta=0.0, lambda_=1.0)
        lb = overall_loss(*batch, protos, prior, hp)
        assert lb.l_overall == lb.l_ins + lb.l_sup

    def test_weighted_sum_arithmetic(self):
        hp = Hyperparams(lambda_=1.0, alpha=0.5, beta=2.0)
        assert combine_overall(1.0, 2.0, 3.0, 4.0, hp) == pytest.approx(12.5, abs=1e-12)

    def test_recombination_identity_on_random_components(self):
        rng = derive_stream(13, "test")
        for _ in range(100):
            li, ls, hp_, hu = rng.uniform(0, 5, size=4)
            lam, al, be = rng.uniform(0, 3, size=3)
            hp = Hyperparams(lambda_=float(lam), alpha=float(al), beta=float(be))
            combined = combine_overall(float(li), float(ls), float(hp_), float(hu), hp)
            assert abs(combined - (li + lam * ls + al * hp_ + be * hu)) <= 1e-12

    def test_breakdown_satisfies_recombination(self):
        rng = derive_stream(14, "test")
        batch, protos, prior = _random_batch(rng)
        hp = Hyperparams(lambda_=0.7, alpha=0.4, beta=1.3)
        lb = overall_loss(*batch, protos, prior, hp)
        assert abs(lb.l_overall - combine_overall(
            lb.l_ins, lb.l_sup, lb.h_prior, lb.h_uniform, hp)) <= 1e-12

    def test_grad_matches_finite_differences_through_composite(self):
        for trial in range(5):
            rng = derive_stream(700 + trial, "test")
            (Z, *batch), protos, prior = _random_batch(rng)
            hp = Hyperparams(lambda_=0.8, alpha=0.6, beta=1.5)
            lb = overall_loss(Z, *batch, protos, prior, hp)

            def scalar(z):
                return overall_loss(z, *batch, protos, prior, hp).l_overall

            fd = finite_diff(scalar, np.array(Z), h=1e-5)
            assert rel_error(lb.grad_Z, fd) <= 1e-4

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rotation_keeps_value_and_rotates_gradient(self, seed):
        # every term depends on Z and the prototypes only through dot products
        rng = np.random.default_rng(seed)
        (Z, *batch), protos, prior = _random_batch(rng)
        hp = Hyperparams(lambda_=0.8, alpha=0.6, beta=1.5)
        Q = random_orthogonal(rng, Z.shape[1])
        lb = overall_loss(Z, *batch, protos, prior, hp)
        lr = overall_loss(Z @ Q, *batch, Prototypes(M=protos.M @ Q), prior, hp)
        assert lr.l_overall == pytest.approx(lb.l_overall, rel=1e-12)
        assert rel_error(lr.grad_Z, lb.grad_Z @ Q) <= 1e-10

    def test_needs_two_unlabeled_instances(self):
        rng = derive_stream(15, "test")
        Z = unit_rows(rng, 8, 6)
        labeled_mask = np.array([True, True, True, False])
        protos = Prototypes(M=unit_rows(rng, 3, 6))
        with pytest.raises(ValidationError, match="unlabeled"):
            overall_loss(Z, labeled_mask, np.array([0, 1, 0, 0]), protos, np.full(3, 1 / 3),
                         Hyperparams())

    def test_rejects_odd_row_count(self):
        Z = unit_rows(derive_stream(17, "test"), 3, 4)
        protos = Prototypes(M=unit_rows(derive_stream(18, "test"), 2, 4))
        with pytest.raises(ValidationError, match="two views per instance"):
            overall_loss(Z, np.array([False]), np.array([0]), protos, np.full(2, 0.5),
                         Hyperparams())

    def test_rejects_labels_that_do_not_align_with_the_mask(self):
        Z = unit_rows(derive_stream(19, "test"), 8, 4)
        protos = Prototypes(M=unit_rows(derive_stream(20, "test"), 2, 4))
        with pytest.raises(ValidationError, match="labels and labeled_mask must align"):
            overall_loss(Z, np.zeros(4, dtype=bool), np.zeros(3, dtype=np.int64), protos,
                         np.full(2, 0.5), Hyperparams())

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_accepts_any_two_view_layout(self, b):
        rng = np.random.default_rng(b)
        Z = unit_rows(rng, 2 * b, 5)
        lb = overall_loss(Z, np.zeros(b, dtype=bool), np.zeros(b, dtype=np.int64),
                          Prototypes(M=unit_rows(rng, 3, 5)), np.full(3, 1 / 3), Hyperparams())
        assert lb.grad_Z.shape == Z.shape

    def test_labeled_views_always_have_a_positive(self):
        # the labeled views come in sibling pairs and a sibling is a positive,
        # so even when every instance has its own class no row of the
        # supervised contrast lacks one; _contrast would raise if it did
        rng = derive_stream(21, "test")
        for _ in range(50):
            B = int(rng.integers(3, 12))
            labeled_mask = rng.permutation(np.arange(B) < rng.integers(1, B - 1))
            overall_loss(unit_rows(rng, 2 * B, 8), labeled_mask, rng.permutation(B),
                         Prototypes(M=unit_rows(rng, 4, 8)), random_simplex(rng, 4),
                         Hyperparams())
            assert labeled_mask.any()

    def test_all_unlabeled_batch_has_zero_supervised_term(self):
        rng = derive_stream(16, "test")
        Z = unit_rows(rng, 12, 6)
        protos = Prototypes(M=unit_rows(rng, 4, 6))
        lb = overall_loss(Z, np.zeros(6, dtype=bool), np.zeros(6, dtype=np.int64), protos,
                          np.full(4, 0.25), Hyperparams())
        assert lb.l_sup == 0.0

    def test_end_to_end_gradient_through_projection_head(self):
        # chain rule check: d(loss)/d(head params) via losses.grad_Z + model.backward
        from ltgcd.model import ProjectionHead, backward
        for trial in range(3):
            rng = derive_stream(800 + trial, "test")
            head = init_head(16, 16, 16, rng)
            X = rng.standard_normal((16, 16))
            labeled_mask = np.zeros(8, dtype=bool)
            labeled_mask[:3] = True
            labels = rng.integers(0, 2, size=8)
            protos = Prototypes(M=unit_rows(rng, 4, 16))
            prior = random_simplex(rng, 4)
            hp = Hyperparams(lambda_=1.0, alpha=0.7, beta=1.2)

            Z, acts = forward_cached(head, X)
            lb = overall_loss(Z, labeled_mask, labels, protos, prior, hp)
            analytic = backward(head, X, lb.grad_Z, acts)

            for name in ("W1", "b1", "W2", "b2"):
                def scalar(param, name=name):
                    trial_head = ProjectionHead(**{
                        k: (param if k == name else np.array(v))
                        for k, v in head.params().items()
                    })
                    z = forward(trial_head, X)
                    return overall_loss(z, labeled_mask, labels, protos, prior, hp).l_overall
                fd = finite_diff(scalar, np.array(getattr(head, name)), h=1e-5)
                assert rel_error(analytic[name], fd) <= 1e-4


