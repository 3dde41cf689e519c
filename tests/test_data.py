"""Mixture generation, augmentation, and dataset file round-trips."""

import collections

import numpy as np
import pytest

from ltgcd.config import SplitSpec, round_half_up
from ltgcd.data import EmbeddingDataset, generate_mixture, load_embeddings, make_views, write_dataset
from ltgcd.errors import DataFormatError, ValidationError
from ltgcd.rng import derive_stream


def small_dataset(seed=0, **kwargs):
    spec_kwargs = dict(num_classes=6, num_known=3, samples_per_known=40, rho=5.0, dim=8)
    spec_kwargs.update(kwargs)
    spec = SplitSpec(**spec_kwargs)
    return generate_mixture(spec, 5.0, derive_stream(seed, "split")), spec


class TestGenerateMixture:
    def test_unknown_class_sizes_follow_imbalance_factor(self):
        # rho = n_k / n_u: 500 known samples at rho=5 puts 100 rows in each
        # unknown class, all unlabeled.
        spec = SplitSpec(num_classes=10, num_known=5, samples_per_known=500,
                         rho=5.0, dim=4)
        data = generate_mixture(spec, 5.0, derive_stream(1, "split"))
        for c in range(5, 10):
            rows = data.labels == c
            assert rows.sum() == 100
            assert not data.is_labeled[rows].any()

    def test_half_of_each_known_class_is_labeled(self):
        spec = SplitSpec(num_classes=10, num_known=5, samples_per_known=500,
                         rho=5.0, labeled_fraction=0.5, dim=4)
        data = generate_mixture(spec, 5.0, derive_stream(1, "split"))
        for c in range(5):
            assert data.is_labeled[data.labels == c].sum() == 250

    def test_balanced_case_unlabeled_pool(self):
        # rho=1: every class totals 100 rows; known classes lose their labeled
        # half from the unlabeled pool.
        spec = SplitSpec(num_classes=4, num_known=2, samples_per_known=100,
                         rho=1.0, dim=4)
        data = generate_mixture(spec, 5.0, derive_stream(2, "split"))
        totals = collections.Counter(data.labels.tolist())
        assert all(totals[c] == 100 for c in range(4))
        pool = collections.Counter(data.labels[~data.is_labeled].tolist())
        assert pool[0] == pool[1] == 50
        assert pool[2] == pool[3] == 100

    def test_unlabeled_pool_histogram_matches_spec(self):
        data, spec = small_dataset()
        n_k, lf = spec.samples_per_known, spec.labeled_fraction
        pool = collections.Counter(data.labels[~data.is_labeled].tolist())
        for c in data.known_classes:
            assert pool[c] == round_half_up(n_k * (1 - lf))
        for c in data.unknown_classes:
            assert pool[c] == spec.samples_per_unknown

    def test_deterministic_given_seed(self):
        a, _ = small_dataset(seed=3)
        b, _ = small_dataset(seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.is_labeled, b.is_labeled)

    def test_means_lie_on_requested_sphere(self):
        spec = SplitSpec(num_classes=4, num_known=2, samples_per_known=2000,
                         rho=1.0, dim=6)
        data = generate_mixture(spec, 7.0, derive_stream(5, "split"))
        for c in range(4):
            mean = data.points[data.labels == c].mean(axis=0)
            # empirical class mean approaches the sphere radius
            assert abs(np.linalg.norm(mean) - 7.0) < 0.3

    def test_negative_sep_rejected(self):
        spec = SplitSpec(num_classes=4, num_known=2, samples_per_known=10, rho=1.0, dim=4)
        with pytest.raises(ValidationError):
            generate_mixture(spec, -1.0, derive_stream(0, "split"))

    def test_dataset_arrays_are_immutable(self):
        data, _ = small_dataset()
        with pytest.raises(ValueError):
            data.points[0, 0] = 1.0


class TestMakeViews:
    def test_identity_augmentation(self):
        data, _ = small_dataset()
        idx = np.arange(10)
        X = make_views(data, idx, noise_sigma=0.0, drop_prob=0.0,
                       rng=derive_stream(0, "aug"))
        assert np.array_equal(X[0::2], data.points[idx])
        assert np.array_equal(X[1::2], data.points[idx])

    def test_views_use_independent_draws(self):
        data, _ = small_dataset()
        X = make_views(data, np.arange(10), 0.1, 0.0, derive_stream(0, "aug"))
        assert not np.array_equal(X[0::2], X[1::2])

    def test_noise_magnitude_monte_carlo(self):
        # E||view - point||^2 = d sigma^2; 10^4 coordinate draws land within 5%
        spec = SplitSpec(num_classes=2, num_known=1, samples_per_known=100,
                         rho=1.0, dim=100)
        data = generate_mixture(spec, 5.0, derive_stream(4, "split"))
        idx = np.arange(100)
        X = make_views(data, idx, noise_sigma=0.1, drop_prob=0.0,
                       rng=derive_stream(11, "aug"))
        sq = np.sum((X[0::2] - data.points[idx]) ** 2, axis=1)
        expected = 100 * 0.01
        assert abs(sq.mean() - expected) / expected < 0.05

    def test_dropout_rate_monte_carlo(self):
        spec = SplitSpec(num_classes=2, num_known=1, samples_per_known=100,
                         rho=1.0, dim=1000)
        data = generate_mixture(spec, 5.0, derive_stream(6, "split"))
        idx = np.arange(100)
        X = make_views(data, idx, noise_sigma=0.0, drop_prob=0.2,
                       rng=derive_stream(12, "aug"))
        zero_frac = (X[0::2] == 0.0).mean()
        assert 0.18 <= zero_frac <= 0.22

    @pytest.mark.parametrize("kwargs", [dict(noise_sigma=-0.1), dict(drop_prob=1.0),
                                        dict(drop_prob=-0.2)])
    def test_rejects_bad_augmentation_params(self, kwargs):
        data, _ = small_dataset()
        full = dict(noise_sigma=0.1, drop_prob=0.1)
        full.update(kwargs)
        with pytest.raises(ValidationError):
            make_views(data, np.arange(4), full["noise_sigma"], full["drop_prob"],
                       derive_stream(0, "aug"))


class TestFileRoundTrip:
    def test_write_then_load_reproduces_dataset(self, tmp_path):
        data, _ = small_dataset()
        manifest = write_dataset(data, tmp_path)
        loaded = load_embeddings(manifest)
        assert loaded.num_classes == data.num_classes
        assert loaded.known_classes == data.known_classes
        assert np.array_equal(loaded.labels, data.labels)
        assert np.array_equal(loaded.is_labeled, data.is_labeled)
        assert np.max(np.abs(loaded.points - data.points)) <= 1e-6

    def test_small_valid_file(self, tmp_path):
        (tmp_path / "d.csv").write_text(
            "id,label,is_labeled,f0,f1\n"
            "0,0,1,0.5,1.0\n"
            "1,0,0,0.25,-1.0\n"
            "2,1,0,2.0,3.5\n"
            "3,1,0,-1.0,0.0\n"
        )
        (tmp_path / "d.manifest.json").write_text(
            '{"data": "d.csv", "C": 2, "d": 2, "known_classes": [0]}'
        )
        loaded = load_embeddings(tmp_path / "d.manifest.json")
        assert loaded.n == 4
        assert loaded.unknown_classes == frozenset({1})

    def test_labeled_unknown_class_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text(
            "id,label,is_labeled,f0\n0,0,1,0.5\n1,1,1,0.25\n"
        )
        (tmp_path / "m.json").write_text(
            '{"data": "d.csv", "C": 2, "d": 1, "known_classes": [0]}'
        )
        with pytest.raises(DataFormatError, match="labeled unknown class"):
            load_embeddings(tmp_path / "m.json")

    def test_class_id_out_of_range_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("id,label,is_labeled,f0\n0,0,1,0.5\n1,5,0,0.2\n")
        (tmp_path / "m.json").write_text(
            '{"data": "d.csv", "C": 2, "d": 1, "known_classes": [0]}'
        )
        with pytest.raises(DataFormatError, match=">= C"):
            load_embeddings(tmp_path / "m.json")

    def test_malformed_row_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("id,label,is_labeled,f0\n0,0,1,not_a_number\n")
        (tmp_path / "m.json").write_text(
            '{"data": "d.csv", "C": 2, "d": 1, "known_classes": [0]}'
        )
        with pytest.raises(DataFormatError, match="malformed"):
            load_embeddings(tmp_path / "m.json")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        (tmp_path / "d.csv").write_text(
            f"id,label,is_labeled,f0,f1\n0,0,1,0.5,1.0\n1,1,0,0.25,{value}\n"
        )
        (tmp_path / "m.json").write_text(
            '{"data": "d.csv", "C": 2, "d": 2, "known_classes": [0]}'
        )
        with pytest.raises(DataFormatError, match=r"d\.csv:3: non-finite"):
            load_embeddings(tmp_path / "m.json")

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_embeddings(tmp_path / "absent.json")
        (tmp_path / "m.json").write_text(
            '{"data": "gone.csv", "C": 2, "d": 1, "known_classes": [0]}'
        )
        with pytest.raises(FileNotFoundError):
            load_embeddings(tmp_path / "m.json")


class TestDatasetInvariants:
    def test_known_unknown_must_partition(self):
        with pytest.raises(DataFormatError):
            EmbeddingDataset(
                points=np.zeros((2, 2)),
                labels=np.array([0, 1]),
                is_labeled=np.array([True, False]),
                known_classes=frozenset({0}),
                unknown_classes=frozenset({0, 1}),
                num_classes=2,
                dim=2,
            )

    def test_every_known_class_needs_a_labeled_row(self):
        with pytest.raises(DataFormatError, match="no labeled row"):
            EmbeddingDataset(
                points=np.zeros((2, 2)),
                labels=np.array([0, 1]),
                is_labeled=np.array([False, False]),
                known_classes=frozenset({0}),
                unknown_classes=frozenset({1}),
                num_classes=2,
                dim=2,
            )
