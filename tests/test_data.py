"""Mixture generation, augmentation, and dataset file round-trips."""

import collections
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltgcd import data as data_module
from ltgcd.config import Hyperparams, SplitSpec, round_half_up
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
        # make_views takes its settings from Hyperparams, which rejects a bad
        # value before any view is drawn.
        data, _ = small_dataset()
        with pytest.raises(ValidationError):
            hp = Hyperparams(**kwargs)
            make_views(data, np.arange(4), hp.noise_sigma, hp.drop_prob,
                       derive_stream(0, "aug"))


class TestFileRoundTrip:
    def test_write_then_load_reproduces_dataset(self, tmp_path):
        data, _ = small_dataset(samples_per_known=400, dim=64)
        assert data.n > 2 * (data_module.BLOCK_CELLS // data.dim)   # three blocks or more
        manifest = write_dataset(data, tmp_path)
        loaded = load_embeddings(manifest)
        assert loaded.num_classes == data.num_classes
        assert loaded.known_classes == data.known_classes
        assert np.array_equal(loaded.labels, data.labels)
        assert np.array_equal(loaded.is_labeled, data.is_labeled)
        assert np.array_equal(loaded.points.view(np.uint64), data.points.view(np.uint64))

    @given(points=arrays(
        np.float64, st.tuples(st.just(4), st.integers(1, 4)),
        elements=st.one_of(
            st.sampled_from([5e-324, -5e-324, 1e-310, 1e308, -1e308, -0.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    ))
    @settings(max_examples=50, deadline=None)
    def test_features_round_trip_bit_for_bit(self, points):
        # subnormals, +-1e308 and -0.0 survive the CSV text form unchanged
        data = EmbeddingDataset(
            points=points, labels=np.array([0, 0, 1, 1]),
            is_labeled=np.array([True, False, False, False]),
            known_classes=frozenset({0}), unknown_classes=frozenset({1}),
            num_classes=2, dim=points.shape[1],
        )
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_embeddings(write_dataset(data, tmp))
        assert np.array_equal(loaded.points.view(np.uint64), points.view(np.uint64))

    def test_writer_bytes(self, tmp_path):
        # CRLF line ends, the id,label,is_labeled prefix, and every float as
        # its shortest round-trip repr, signed zero and subnormals included.
        data = EmbeddingDataset(
            points=np.array([[-0.0, 5e-324], [1e-310, 1e308], [0.1, -2.5]]),
            labels=np.array([0, 1, 1]), is_labeled=np.array([True, False, False]),
            known_classes=frozenset({0}), unknown_classes=frozenset({1}),
            num_classes=2, dim=2,
        )
        write_dataset(data, tmp_path)
        assert (tmp_path / "data.csv").read_bytes() == (
            b"id,label,is_labeled,f0,f1\r\n"
            b"0,0,1,-0.0,5e-324\r\n"
            b"1,1,0,1e-310,1e+308\r\n"
            b"2,1,0,0.1,-2.5\r\n"
        )

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
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


def two_class_dataset(n, d, seed=0):
    """``n`` random rows of dimension ``d``: class 0 known, row 0 its one
    labeled row, the rest alternating between classes 0 and 1."""
    labels = np.arange(n) % 2
    return EmbeddingDataset(
        points=derive_stream(seed, "test").standard_normal((n, d)), labels=labels,
        is_labeled=np.arange(n) == 0, known_classes=frozenset({0}),
        unknown_classes=frozenset({1}), num_classes=2, dim=d,
    )


class TestBlocks:
    """The writer and the loader work in blocks of about ``BLOCK_CELLS``
    cells; with one CPU they run in this process, with more on a pool."""

    @pytest.mark.parametrize("extra", [0, 1], ids=["one-block", "one-block-plus-one-row"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_block_edges_round_trip_bit_for_bit(self, tmp_path, monkeypatch, cpus, extra):
        monkeypatch.setattr(data_module, "_cpus", lambda: cpus)
        d = 64
        data = two_class_dataset(data_module.BLOCK_CELLS // d + extra, d)
        loaded = load_embeddings(write_dataset(data, tmp_path))
        assert np.array_equal(loaded.points.view(np.uint64), data.points.view(np.uint64))
        assert np.array_equal(loaded.labels, data.labels)
        assert np.array_equal(loaded.is_labeled, data.is_labeled)

    def test_one_and_two_cpus_give_the_same_bytes_and_arrays(self, tmp_path, monkeypatch):
        data = two_class_dataset(3 * data_module.BLOCK_CELLS // 16 + 5, 16)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(data_module, "_cpus", lambda: cpus)
            manifest = write_dataset(data, tmp_path / f"cpus{cpus}")
            loaded = load_embeddings(manifest)
            outputs.append(((manifest.parent / "data.csv").read_bytes(),
                            *(getattr(loaded, name).tobytes()
                              for name in ("points", "labels", "is_labeled"))))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] == data.points.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bad_row_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(data_module, "_cpus", lambda: cpus)
        monkeypatch.setattr(data_module, "BLOCK_CELLS", 4)   # four rows a block at d = 1
        rows = [f"{i},0,1,0.5" for i in range(30)]
        rows[17] = "17,0,1,0.5x"   # line 19, the second row of the fifth block
        with pytest.raises(DataFormatError, match=r"d\.csv:19: malformed row"):
            load_embeddings(write_files(tmp_path, rows))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_earliest_bad_line_wins_across_blocks(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(data_module, "_cpus", lambda: cpus)
        monkeypatch.setattr(data_module, "BLOCK_CELLS", 4)
        rows = [f"{i},0,1,0.5" for i in range(30)]
        # both blocks are in flight at once on two CPUs
        rows[6] = "6,0,2,0.5"      # line 8, in the second block
        rows[13] = "13,0,1"        # line 15, in the fourth block
        with pytest.raises(DataFormatError, match=r"d\.csv:8: is_labeled must be 0 or 1"):
            load_embeddings(write_files(tmp_path, rows))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("value", ["inf", "nan", "1e999"])
    @pytest.mark.parametrize("later", [2, 3, 13], ids=["short-same-block",
                                                       "unparsable-same-block",
                                                       "short-later-block"])
    def test_non_finite_value_beats_a_later_bad_line(self, tmp_path, monkeypatch, cpus,
                                                      value, later):
        monkeypatch.setattr(data_module, "_cpus", lambda: cpus)
        monkeypatch.setattr(data_module, "BLOCK_CELLS", 4)   # lines 2-5 are the first block
        rows = [f"{i},0,1,0.5" for i in range(30)]
        rows[1] = f"1,0,1,{value}"                           # line 3
        rows[later] = f"{later},0,1" + (",0.5x" if later == 3 else "")
        with pytest.raises(DataFormatError, match=r"d\.csv:3: non-finite feature value"):
            load_embeddings(write_files(tmp_path, rows))


def _slow_first(marks, k, total):
    """Call ``k`` of the pool test. Each later call leaves a mark; the first
    returns once all ``total - 1`` marks are there, or fails after a minute."""
    if k:
        Path(marks, str(k)).touch()
        return k
    deadline = time.monotonic() + 60
    while len(list(Path(marks).iterdir())) < total - 1:
        if time.monotonic() > deadline:
            raise TimeoutError("the later calls did not all run while the first one did")
        time.sleep(0.01)
    return k


class TestOrderedPoolMap:
    def test_a_slow_first_call_idles_no_other_worker(self, tmp_path):
        # the first call runs until every later one has run, which on two
        # workers needs the other worker to take all 11 of them meanwhile
        total = 12
        calls = ((tmp_path, k, total) for k in range(total))
        assert list(data_module.ordered_pool_map(_slow_first, calls, 2)) == list(range(total))


def write_files(tmp_path, rows, d=1, newline="\n", header=None, **manifest):
    """``d.csv`` with ``header`` (default: the expected one) and ``rows``,
    each line ended by ``newline``, plus a manifest ``m.json``."""
    if header is None:
        header = ",".join(["id", "label", "is_labeled"] + [f"f{j}" for j in range(d)])
    (tmp_path / "d.csv").write_bytes("".join(line + newline for line in [header, *rows]).encode())
    manifest = {"data": "d.csv", "C": 2, "d": d, "known_classes": [0], **manifest}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return tmp_path / "m.json"


class TestLoaderErrors:
    """Every loader error names its file, and a row error its line."""

    @pytest.mark.parametrize("rows, message", [
        (["0,0,1,0.5", "1,1,0,0.25,9"], r"d\.csv:3: expected 4 fields, got 5"),
        (["0,0,1,0.5", "1,1,0"], r"d\.csv:3: expected 4 fields, got 3"),
        (["0,0,1,0.5", "", "1,1,0,0.25"], r"d\.csv:3: expected 4 fields, got 0"),
        (["0,0,1,0.5", "1,1,2,0.25"], r"d\.csv:3: is_labeled must be 0 or 1"),
        (["0,0,1,0.5", "1,1.5,0,0.25"], r"d\.csv:3: malformed row"),
        (["0,0,1,0.5", "1,1e2,0,0.25"], r"d\.csv:3: malformed row"),
        (["0,0,1,0.5", "1,1_0,0,0.25"], r"d\.csv:3: malformed row"),
        (["0,0,1,0.5", "1, 1,0,0.25"], r"d\.csv:3: malformed row"),
        (["0,0,1,0.5", "1,\u0661,0,0.25"], r"d\.csv:3: malformed row"),
        (["0,0,1,0.5", '1,1,0,"0.5"'], r"d\.csv:3: malformed row"),
        (["0,0,1,0.5", "1,1,0,0.25", "2,1,0,"], r"d\.csv:4: malformed row"),
        ([], r"d\.csv: no data rows"),
    ])
    def test_row_errors_name_file_and_line(self, tmp_path, rows, message):
        with pytest.raises(DataFormatError, match=message):
            load_embeddings(write_files(tmp_path, rows))

    def test_bad_header(self, tmp_path):
        manifest = write_files(tmp_path, ["0,0,1,0.5"], header="id,label,labeled,f0")
        with pytest.raises(DataFormatError, match=r"d\.csv: bad header"):
            load_embeddings(manifest)

    def test_invalid_manifest_json(self, tmp_path):
        (tmp_path / "m.json").write_text('{"data": "d.csv", "C": 2,')
        with pytest.raises(DataFormatError, match=r"m\.json: invalid JSON"):
            load_embeddings(tmp_path / "m.json")

    def test_missing_manifest_key(self, tmp_path):
        (tmp_path / "m.json").write_text('{"data": "d.csv", "d": 1, "known_classes": [0]}')
        with pytest.raises(DataFormatError, match=r"m\.json: manifest missing key 'C'"):
            load_embeddings(tmp_path / "m.json")

    @pytest.mark.parametrize("key, value, message", [
        ("C", 2.7, r"C must be an integer, got 2\.7"),
        ("d", True, r"d must be an integer, got True"),
        ("C", "3", r"C must be an integer, got '3'"),
        ("known_classes", [0.6], r"known_classes must be a list of integers, got \[0\.6\]"),
        ("known_classes", "01", r"known_classes must be a list of integers, got '01'"),
    ], ids=["C-float", "d-bool", "C-string", "known-float", "known-string"])
    def test_manifest_numbers_must_be_json_integers(self, tmp_path, key, value, message):
        manifest = write_files(tmp_path, ["0,0,1,0.5"], **{key: value})
        with pytest.raises(DataFormatError, match=r"m\.json: " + message):
            load_embeddings(manifest)

    @pytest.mark.parametrize("known", [[2], [-1], []])
    def test_known_classes_out_of_range(self, tmp_path, known):
        manifest = write_files(tmp_path, ["0,0,1,0.5"], known_classes=known)
        with pytest.raises(DataFormatError,
                           match=r"m\.json: known_classes must be a nonempty subset of 0\.\.C-1"):
            load_embeddings(manifest)

    def test_dimension_must_be_positive(self, tmp_path):
        manifest = write_files(tmp_path, ["0,0,1"], d=0)
        with pytest.raises(DataFormatError, match=r"m\.json: d must be >= 1, got 0"):
            load_embeddings(manifest)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_lf_and_crlf_files_load(self, tmp_path, newline):
        rows = ["0,0,1,0.5,-1.0", "1,0,0,0.25,2e-300", "2,1,0,-0.0,1e308"]
        loaded = load_embeddings(write_files(tmp_path, rows, d=2, newline=newline))
        expected = np.array([[0.5, -1.0], [0.25, 2e-300], [-0.0, 1e308]])
        assert np.array_equal(loaded.points.view(np.uint64), expected.view(np.uint64))
        assert loaded.labels.tolist() == [0, 0, 1]
        assert loaded.is_labeled.tolist() == [True, False, False]

    def test_malformed_feature_deep_in_the_stream(self, tmp_path):
        # np.loadtxt's C reader pulls and converts one line at a time from the
        # loader's generator, so a bad float anywhere in a long file is named
        # by its own line, counting the header as line 1.
        rows = [f"{i},0,1,0.5" for i in range(50_010)]
        rows[50_001] = "50001,0,1,0.5x"
        with pytest.raises(DataFormatError, match=r"d\.csv:50003: malformed row"):
            load_embeddings(write_files(tmp_path, rows))

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        # Far past the text decoder's read-ahead block, in any locale.
        rows = [f"{i},0,1,0.5" for i in range(5_000)]
        manifest = write_files(tmp_path, rows)
        with open(tmp_path / "d.csv", "ab") as fh:
            fh.write(b"5000,0,1,0.5\xff\n5001,0,1,0.5\n")
        with pytest.raises(DataFormatError, match=r"d\.csv:5002: malformed row"):
            load_embeddings(manifest)

    def test_known_class_without_labeled_row_names_the_manifest(self, tmp_path):
        manifest = write_files(tmp_path, ["0,0,1,0.5", "1,1,0,0.25"], C=3, known_classes=[0, 1])
        with pytest.raises(DataFormatError,
                           match=r"m\.json: known classes with no labeled row: \[1\]"):
            load_embeddings(manifest)


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
