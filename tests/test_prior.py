"""Class-prior estimation: histogram, EMA recursion, convergence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltgcd.errors import ValidationError
from ltgcd.prior import ema_update, hard_histogram


class TestHardHistogram:
    def test_counts_argmaxes(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]])
        assert np.allclose(hard_histogram(np.argmax(probs, axis=1), 2), [2 / 3, 1 / 3])

    def test_one_hot_rows_recover_frequencies(self):
        labels = np.array([0, 1, 1, 2, 2, 2])
        probs = np.eye(3)[labels]
        assert np.allclose(hard_histogram(np.argmax(probs, axis=1), 3), [1 / 6, 2 / 6, 3 / 6])

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            hard_histogram(np.empty(0, dtype=np.int64), 3)


class TestEmaUpdate:
    def test_single_step(self):
        updated = ema_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.99)
        assert np.allclose(updated, [0.505, 0.495], atol=1e-15)

    def test_mu_one_freezes_prior(self):
        r = np.array([0.3, 0.7])
        updated = ema_update(r, np.array([1.0, 0.0]), 1.0)
        assert np.array_equal(updated, r)

    def test_geometric_closed_form_at_k_100(self):
        # r_k = mu^k r_0 + (1 - mu^k) z for constant z
        mu = 0.99
        r0 = np.array([0.7, 0.2, 0.1])
        z = np.array([0.1, 0.3, 0.6])
        r = r0
        for _ in range(100):
            r = ema_update(r, z, mu)
        expected = mu**100 * r0 + (1 - mu**100) * z
        assert np.max(np.abs(r - expected)) <= 1e-12

    def test_contraction_in_infinity_norm(self):
        r = np.array([0.6, 0.3, 0.1])
        z = np.array([0.2, 0.5, 0.3])
        gap = np.max(np.abs(r - z))
        for _ in range(50):
            r = ema_update(r, z, 0.9)
            new_gap = np.max(np.abs(r - z))
            assert abs(new_gap - 0.9 * gap) <= 1e-12
            gap = new_gap

    def test_off_simplex_z_rejected(self):
        r = np.full(3, 1 / 3)
        with pytest.raises(ValidationError):
            ema_update(r, np.array([0.5, 0.2, 0.2]), 0.99)
        with pytest.raises(ValidationError):
            ema_update(r, np.array([1.2, -0.1, -0.1]), 0.99)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ema_update(np.full(3, 1 / 3), np.array([0.5, 0.5]), 0.99)

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=8),
           st.floats(min_value=0.0, max_value=1.0))
    def test_simplex_preserved(self, raw, mu):
        z = np.asarray(raw) / np.sum(raw)
        r = np.full(len(raw), 1 / len(raw))
        for _ in range(5):
            r = ema_update(r, z, mu)
        assert abs(r.sum() - 1.0) <= 1e-9
        assert np.all(r >= 0)


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
        assignments = np.argmax(predict_probs(feats, protos, tau_p=0.05), axis=1)
        assert np.array_equal(assignments, data.labels[unlab])

        z = hard_histogram(assignments, 5)
        truth = np.bincount(data.labels[unlab], minlength=5) / len(unlab)
        assert np.allclose(z, truth)

        r = np.full(5, 1 / 5)
        for _ in range(1000):
            r = ema_update(r, z, 0.99)
        assert np.max(np.abs(r - truth)) <= 1e-3
