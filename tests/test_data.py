"""Mixture generation, augmentation, and dataset file round-trips."""

import collections
import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltgcd.config import Hyperparams, SplitSpec, round_half_up
from ltgcd.data import (EmbeddingDataset, generate_mixture, load_embeddings, make_views,
                        view_draws, write_dataset)
from ltgcd.errors import DataFormatError, ValidationError
from ltgcd.rng import derive_stream
from support import replace_member


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

    @pytest.mark.parametrize("rows", [1, 7, 10])
    @pytest.mark.parametrize("drop_prob", [0.0, 0.3])
    def test_view_draws_bounds_the_draws_made(self, rows, drop_prob):
        # the training loop's draw process sizes its ring slots by view_draws
        sizes = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                sizes.append(size)
                return self.rng.standard_normal(size)

            def random(self, size):
                sizes.append(size)
                return self.rng.random(size)
        data, _ = small_dataset()
        make_views(data, np.arange(rows), 0.1, drop_prob, Recording(derive_stream(0, "aug")))
        draws, values = view_draws(rows, data.dim)
        made = sum(r * c for r, c in sizes)
        assert len(sizes) <= draws and made <= values
        if drop_prob:   # the bound is met exactly
            assert (len(sizes), made) == (draws, values)

    @pytest.mark.parametrize("kwargs", [dict(noise_sigma=-0.1), dict(drop_prob=1.0),
                                        dict(drop_prob=-0.2)])
    def test_rejects_bad_augmentation_params(self, kwargs):
        # make_views takes its settings from Hyperparams, which rejects a bad
        # value before any view is drawn.
        data, _ = small_dataset()
        with pytest.raises(ValidationError):
            hp = Hyperparams(**kwargs)
            make_views(data, np.arange(4), hp.noise_sigma, hp.drop_prob,
                       derive_stream(0, "aug"))


def write_npz(tmp_path, **arrays):
    """``d.npz`` holding a valid three-row, d = 2, C = 2 dataset, with each
    array of ``arrays`` added or put in place of the one of its name (None
    drops it)."""
    valid = {"points": np.arange(6.0).reshape(3, 2), "labels": np.array([0, 0, 1]),
             "is_labeled": np.array([True, False, False]), "num_classes": np.int64(2)}
    np.savez(tmp_path / "d.npz",
             **{name: arr for name, arr in {**valid, **arrays}.items() if arr is not None})
    return tmp_path / "d.npz"


# features whose bits a round trip is most likely to lose
FEATURES = arrays(
    np.float64, st.tuples(st.just(4), st.integers(1, 4)),
    elements=st.one_of(
        st.sampled_from([5e-324, -5e-324, 1e-310, 1e308, -1e308, -0.0]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)


class TestFileRoundTrip:
    def test_write_then_load_reproduces_dataset(self, tmp_path):
        data, _ = small_dataset(samples_per_known=400, dim=64)
        loaded = load_embeddings(write_dataset(data, tmp_path))
        assert loaded.num_classes == data.num_classes
        assert loaded.known_classes == data.known_classes == frozenset({0, 1, 2})
        assert loaded.unknown_classes == frozenset({3, 4, 5})
        assert loaded.dim == 64
        assert np.array_equal(loaded.labels, data.labels)
        assert np.array_equal(loaded.is_labeled, data.is_labeled)
        assert np.array_equal(loaded.points.view(np.uint64), data.points.view(np.uint64))

    @given(points=FEATURES)
    @settings(max_examples=50, deadline=None)
    def test_features_round_trip_bit_for_bit(self, points):
        # the one np.savez call that turns external embeddings into a dataset
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_embeddings(write_npz(
                Path(tmp), points=points, labels=np.array([0, 0, 1, 1]),
                is_labeled=np.array([True, False, False, False])))
        assert np.array_equal(loaded.points.view(np.uint64), points.view(np.uint64))

    @given(points=FEATURES)
    @settings(max_examples=50, deadline=None)
    def test_features_round_trip_bit_for_bit_through_npz(self, points):
        data = EmbeddingDataset(
            points=points, labels=np.array([0, 0, 1, 1]),
            is_labeled=np.array([True, False, False, False]), num_classes=2,
        )
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_embeddings(write_dataset(data, tmp))
        assert np.array_equal(loaded.points.view(np.uint64), points.view(np.uint64))

    def test_npz_holds_the_loader_dtypes_whatever_the_dataset_holds(self, tmp_path):
        data = EmbeddingDataset(
            points=np.array([[0.5, -1.0], [0.25, 2.0]], dtype=np.float32),
            labels=np.array([0, 1], dtype=np.int32), is_labeled=np.array([True, False]),
            num_classes=np.int32(2),
        )
        loaded = load_embeddings(write_dataset(data, tmp_path))
        assert (loaded.points.dtype, loaded.labels.dtype) == (np.float64, np.int64)
        assert loaded.points.tolist() == [[0.5, -1.0], [0.25, 2.0]]
        assert loaded.labels.tolist() == [0, 1]
        assert type(loaded.num_classes) is int and loaded.num_classes == 2

    def test_write_dataset_gives_the_same_npz_bytes_every_time(self, tmp_path):
        data, _ = small_dataset()
        first, second = (write_dataset(data, tmp_path / name) for name in ("a", "b"))
        assert first.read_bytes() == second.read_bytes()
        # the npz is the whole dataset: no file is written beside it
        assert list((tmp_path / "a").iterdir()) == [tmp_path / "a" / "data.npz"] == [first]
        # the zip members carry a fixed date, not the time of the save
        with zipfile.ZipFile(first) as archive:
            assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}
            assert archive.namelist() == ["points.npy", "labels.npy", "is_labeled.npy",
                                          "num_classes.npy"]

    def test_small_valid_file(self, tmp_path):
        loaded = load_embeddings(write_npz(tmp_path, points=np.array([[0.5, 1.0], [0.25, -1.0],
                                                                      [2.0, 3.5], [-1.0, 0.0]]),
                                           labels=np.array([0, 0, 1, 1]),
                                           is_labeled=np.array([True, False, False, False])))
        assert loaded.n == 4
        assert loaded.unknown_classes == frozenset({1})

    def test_class_id_out_of_range_rejected(self, tmp_path):
        npz = write_npz(tmp_path, labels=np.array([0, 0, -1]))
        with pytest.raises(DataFormatError, match=r"d\.npz: labels must lie in \[0, C\)"):
            load_embeddings(npz)

    def test_malformed_row_rejected(self, tmp_path):
        # features saved as the text they were read from, not as numbers
        npz = write_npz(tmp_path, points=np.array([["0.5", "1.0"], ["0.25", "-1.0"],
                                                   ["2.0", "not_a_number"]]))
        with pytest.raises(DataFormatError, match=r"d\.npz: points must be native float64, "
                                                  r"got <U12$"):
            load_embeddings(npz)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        points = np.arange(6.0).reshape(3, 2)
        points[2, 1] = float(value)
        with pytest.raises(DataFormatError, match=r"d\.npz: row 2: non-finite feature value"):
            load_embeddings(write_npz(tmp_path, points=points))

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=r"dataset not found: .*absent\.npz$"):
            load_embeddings(tmp_path / "absent.npz")


class TestLoaderErrors:
    """Every loader error names its file."""

    def test_valid_npz_loads(self, tmp_path):
        loaded = load_embeddings(write_npz(tmp_path))
        assert loaded.points.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert loaded.labels.tolist() == [0, 0, 1]
        assert loaded.is_labeled.tolist() == [True, False, False]
        assert (loaded.num_classes, loaded.dim) == (2, 2)
        assert (loaded.known_classes, loaded.unknown_classes) == ({0}, {1})

    @pytest.mark.parametrize("edit, message", [
        (lambda good: good[:len(good) // 2], r"cannot read as npz \(BadZipFile"),
        (lambda good: b"", "not an npz archive$"),
        (lambda good: b"garbage, not an archive", "not an npz archive$"),
    ], ids=["truncated", "empty", "garbage"])
    def test_unreadable_npz(self, tmp_path, edit, message):
        npz = write_npz(tmp_path)
        npz.write_bytes(edit(npz.read_bytes()))
        with pytest.raises(DataFormatError, match=rf"d\.npz: {message}"):
            load_embeddings(npz)

    def test_npz_object_array_is_not_unpickled(self, tmp_path):
        npz = write_npz(tmp_path, labels=np.array([0, 0, 1], dtype=object))
        with pytest.raises(DataFormatError, match=r"d\.npz: cannot read as npz \(ValueError: "
                                                  r"Object arrays cannot be loaded"):
            load_embeddings(npz)

    def test_npy_file_under_an_npz_name(self, tmp_path):
        npz = write_npz(tmp_path)
        with open(npz, "wb") as fh:
            np.save(fh, np.arange(6.0).reshape(3, 2))
        with pytest.raises(DataFormatError,
                           match=r"d\.npz: not an npz archive \(a single \.npy array\)"):
            load_embeddings(npz)

    @pytest.mark.parametrize("name, write, kind", [
        ("d.csv", lambda path: path.write_text("x0,x1,label,is_labeled\n0.5,1.0,0,1\n"), ""),
        ("d.npy", lambda path: np.save(path, np.arange(6.0).reshape(3, 2)),
         r" \(a single \.npy array\)"),
        # an old-style JSON manifest, which named the npz beside it
        ("d.npz.bak", lambda path: path.write_text(json.dumps(
            {"data": "d.npz", "C": 2, "d": 2, "known_classes": [0]})), ""),
    ], ids=["d.csv", "d.npy", "d.npz.bak"])
    def test_data_must_name_an_npz_file(self, tmp_path, name, write, kind):
        # the contents decide, not the name: none of these is an npz archive
        write_npz(tmp_path)
        write(tmp_path / name)
        with pytest.raises(DataFormatError, match=rf"{name}: not an npz archive{kind}$"):
            load_embeddings(tmp_path / name)

    def test_member_that_is_not_a_npy_array(self, tmp_path):
        # np.load hands back the raw bytes of a member without the .npy magic
        npz = write_npz(tmp_path)
        npz.write_bytes(replace_member(npz.read_bytes(), "labels.npy", b"0,0,1\n"))
        with pytest.raises(DataFormatError, match=r"d\.npz: labels is not a \.npy array$"):
            load_embeddings(npz)

    @pytest.mark.parametrize("arrays, got", [
        (dict(is_labeled=None), r"\['points', 'labels', 'num_classes'\]"),
        (dict(ids=np.arange(3)), r"\['points', 'labels', 'is_labeled', 'num_classes', 'ids'\]"),
        (dict(num_classes=None), r"\['points', 'labels', 'is_labeled'\]"),
    ], ids=["missing", "extra", "missing-num_classes"])
    def test_npz_must_hold_exactly_the_four_arrays(self, tmp_path, arrays, got):
        with pytest.raises(DataFormatError, match=r"d\.npz: expected the arrays \['points', "
                                                  r"'labels', 'is_labeled', 'num_classes'\], "
                                                  r"got " + got):
            load_embeddings(write_npz(tmp_path, **arrays))

    @pytest.mark.parametrize("name, arr, message", [
        ("points", np.zeros((3, 2), dtype=np.float32), "native float64, got float32"),
        ("labels", np.array([0, 0, 1], dtype=np.int32), "native int64, got int32"),
        ("is_labeled", np.array([1, 0, 0], dtype=np.uint8), "native bool, got uint8"),
        ("points", np.zeros((3, 2), dtype=">f8"), "native float64, got >f8"),
        ("num_classes", np.float64(2.0), "native int64, got float64"),
        ("num_classes", np.uint64(2), "native int64, got uint64"),
    ], ids=["float32-points", "int32-labels", "uint8-flags", "big-endian-points",
            "float64-num_classes", "uint64-num_classes"])
    def test_npz_dtypes(self, tmp_path, name, arr, message):
        with pytest.raises(DataFormatError, match=rf"d\.npz: {name} must be {message}$"):
            load_embeddings(write_npz(tmp_path, **{name: arr}))

    @pytest.mark.parametrize("arrays, got", [
        (dict(points=np.zeros((3, 0))), r"\(3, 0\), \(3,\), \(3,\), \(\)"),
        (dict(points=np.zeros(6)), r"\(6,\), \(3,\), \(3,\), \(\)"),
        (dict(labels=np.array([0, 1])), r"\(3, 2\), \(2,\), \(3,\), \(\)"),
        (dict(is_labeled=np.array([True, False, False, False])),
         r"\(3, 2\), \(3,\), \(4,\), \(\)"),
        (dict(points=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64),
              is_labeled=np.zeros(0, dtype=bool)), r"\(0, 2\), \(0,\), \(0,\), \(\)"),
        (dict(num_classes=np.array([2])), r"\(3, 2\), \(3,\), \(3,\), \(1,\)"),
    ], ids=["width", "one-dimensional", "short-labels", "long-flags", "zero-rows",
            "one-dimensional-num_classes"])
    def test_npz_shapes(self, tmp_path, arrays, got):
        with pytest.raises(DataFormatError, match=r"d\.npz: expected shapes \(n, d\), \(n,\), "
                                                  r"\(n,\), \(\) with n, d >= 1, got " + got):
            load_embeddings(write_npz(tmp_path, **arrays))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_npz_non_finite_feature_names_the_first_bad_row(self, tmp_path, value):
        points = np.arange(6.0).reshape(3, 2)
        points[1, 1] = value
        points[2, 0] = np.nan
        with pytest.raises(DataFormatError, match=r"d\.npz: row 1: non-finite feature value"):
            load_embeddings(write_npz(tmp_path, points=points))

    def test_npz_labels_get_the_dataset_checks(self, tmp_path):
        npz = write_npz(tmp_path, labels=np.array([0, 0, 2]))
        with pytest.raises(DataFormatError, match=r"d\.npz: labels must lie in \[0, C\)"):
            load_embeddings(npz)

    @pytest.mark.parametrize("value", [0, -1, 4, 2**62, -2**63],
                             ids=["zero", "negative", "rows-plus-one", "2**62", "int64-min"])
    def test_num_classes_must_be_between_one_and_the_row_count(self, tmp_path, value):
        # a class may have no rows, but never more classes than rows: an
        # unbounded count would size every per-class table by it
        with pytest.raises(DataFormatError,
                           match=rf"d\.npz: num_classes must be in \[1, 3\], got {value}$"):
            load_embeddings(write_npz(tmp_path, num_classes=np.int64(value)))

    def test_classes_without_rows_are_unknown(self, tmp_path):
        loaded = load_embeddings(write_npz(tmp_path, num_classes=np.int64(3)))
        assert (loaded.known_classes, loaded.unknown_classes) == ({0}, {1, 2})

    @pytest.mark.parametrize("known", [[2], [-1], []])
    def test_known_classes_out_of_range(self, tmp_path, known):
        # the known classes are the labeled rows' classes: each must lie in
        # [0, C), and there must be at least one
        labels = np.array([*known, 0, 1])
        npz = write_npz(tmp_path, points=np.zeros((len(labels), 2)), labels=labels,
                        is_labeled=np.arange(len(labels)) < len(known))
        message = r"labels must lie in \[0, C\)" if known else "no labeled row, so no known class"
        with pytest.raises(DataFormatError, match=rf"d\.npz: {message}$"):
            load_embeddings(npz)

    def test_dimension_must_be_positive(self, tmp_path):
        # d is the width of points, whatever it is, as long as it is >= 1
        assert load_embeddings(write_npz(tmp_path, points=np.zeros((3, 5)))).dim == 5
        with pytest.raises(DataFormatError, match=r"d\.npz: expected shapes .* with n, d >= 1, "
                                                  r"got \(3, 0\)"):
            load_embeddings(write_npz(tmp_path, points=np.zeros((3, 0))))

    def test_every_row_labeled_is_rejected_naming_the_file(self, tmp_path):
        # nothing is left to train on or to score
        with pytest.raises(DataFormatError, match=r"d\.npz: no unlabeled row, so nothing"):
            load_embeddings(write_npz(tmp_path, is_labeled=np.ones(3, dtype=bool)))


class TestDatasetInvariants:
    def test_known_unknown_must_partition(self):
        # both are derived from the labeled rows, so they partition 0..C-1 by
        # construction; class 4 has no row at all and is unknown
        data = EmbeddingDataset(
            points=np.zeros((5, 2)),
            labels=np.array([0, 3, 1, 2, 3]),
            is_labeled=np.array([True, True, False, False, False]),
            num_classes=5,
        )
        assert data.known_classes == frozenset({0, 3})
        assert data.unknown_classes == frozenset({1, 2, 4})

    def test_every_known_class_needs_a_labeled_row(self):
        with pytest.raises(DataFormatError, match="no labeled row"):
            EmbeddingDataset(
                points=np.zeros((2, 2)),
                labels=np.array([0, 1]),
                is_labeled=np.array([False, False]),
                num_classes=2,
            )
