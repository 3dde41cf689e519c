"""Class-prior estimation: histogram, EMA recursion, convergence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltgcd.errors import ValidationError
from ltgcd.prior import ClassPrior, ema_update, hard_histogram, init_uniform


class TestInitUniform:
    def test_four_classes(self):
        assert np.array_equal(init_uniform(4).r, [0.25, 0.25, 0.25, 0.25])

    def test_two_classes(self):
        assert np.array_equal(init_uniform(2).r, [0.5, 0.5])

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            init_uniform(1)


class TestHardHistogram:
    def test_counts_argmaxes(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]])
        assert np.allclose(hard_histogram(probs), [2 / 3, 1 / 3])

    def test_exact_ties_break_to_lowest_index(self):
        probs = np.full((3, 3), 1 / 3)
        assert np.array_equal(hard_histogram(probs), [1.0, 0.0, 0.0])

    def test_one_hot_rows_recover_frequencies(self):
        labels = np.array([0, 1, 1, 2, 2, 2])
        probs = np.eye(3)[labels]
        assert np.allclose(hard_histogram(probs), [1 / 6, 2 / 6, 3 / 6])

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            hard_histogram(np.empty((0, 3)))


class TestEmaUpdate:
    def test_single_step(self):
        prior = ClassPrior(r=np.array([0.5, 0.5]), mu=0.99)
        updated = ema_update(prior, np.array([1.0, 0.0]))
        assert np.allclose(updated.r, [0.505, 0.495], atol=1e-15)

    def test_mu_one_freezes_prior(self):
        prior = ClassPrior(r=np.array([0.3, 0.7]), mu=1.0)
        updated = ema_update(prior, np.array([1.0, 0.0]))
        assert np.array_equal(updated.r, prior.r)

    def test_geometric_closed_form_at_k_100(self):
        # r_k = mu^k r_0 + (1 - mu^k) z for constant z
        mu = 0.99
        r0 = np.array([0.7, 0.2, 0.1])
        z = np.array([0.1, 0.3, 0.6])
        prior = ClassPrior(r=r0.copy(), mu=mu)
        for _ in range(100):
            prior = ema_update(prior, z)
        expected = mu**100 * r0 + (1 - mu**100) * z
        assert np.max(np.abs(prior.r - expected)) <= 1e-12

    def test_contraction_in_infinity_norm(self):
        prior = ClassPrior(r=np.array([0.6, 0.3, 0.1]), mu=0.9)
        z = np.array([0.2, 0.5, 0.3])
        gap = np.max(np.abs(prior.r - z))
        for _ in range(50):
            prior = ema_update(prior, z)
            new_gap = np.max(np.abs(prior.r - z))
            assert abs(new_gap - 0.9 * gap) <= 1e-12
            gap = new_gap

    def test_off_simplex_z_rejected(self):
        prior = init_uniform(3)
        with pytest.raises(ValidationError):
            ema_update(prior, np.array([0.5, 0.2, 0.2]))
        with pytest.raises(ValidationError):
            ema_update(prior, np.array([1.2, -0.1, -0.1]))

    def test_dimension_mismatch_rejected(self):
        prior = init_uniform(3)
        with pytest.raises(ValidationError):
            ema_update(prior, np.array([0.5, 0.5]))

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=8),
           st.floats(min_value=0.0, max_value=1.0))
    def test_simplex_preserved(self, raw, mu):
        z = np.asarray(raw) / np.sum(raw)
        prior = init_uniform(len(raw), mu=mu)
        for _ in range(5):
            prior = ema_update(prior, z)
        assert abs(prior.r.sum() - 1.0) <= 1e-9
        assert np.all(prior.r >= 0)


class TestConvergenceWithFrozenClassifier:
    def test_reaches_true_frequencies(self):
        # A frozen classifier that is always right yields a constant histogram
        # equal to the true unlabeled frequencies; 1000 EMA steps at mu=0.99
        # close the gap below 1e-3.
        from ltgcd.config import SplitSpec
        from ltgcd.data import generate_mixture
        from ltgcd.model import Prototypes, predict_probs
        from ltgcd.rng import derive_stream

        spec = SplitSpec(num_classes=5, num_known=2, samples_per_known=60,
                         rho=3.0, dim=16)
        data = generate_mixture(spec, 50.0, derive_stream(0, "split"))
        means = np.stack([
            data.points[data.labels == c].mean(axis=0) for c in range(5)
        ])
        protos = Prototypes(M=means / np.linalg.norm(means, axis=1, keepdims=True))

        unlab = data.unlabeled_indices
        feats = data.points[unlab] / np.linalg.norm(data.points[unlab], axis=1,
                                                    keepdims=True)
        probs = predict_probs(feats, protos, tau_p=0.05)
        assert np.array_equal(np.argmax(probs, axis=1), data.labels[unlab])

        z = hard_histogram(probs)
        truth = np.bincount(data.labels[unlab], minlength=5) / len(unlab)
        assert np.allclose(z, truth)

        prior = init_uniform(5, mu=0.99)
        for _ in range(1000):
            prior = ema_update(prior, z)
        assert np.max(np.abs(prior.r - truth)) <= 1e-3
