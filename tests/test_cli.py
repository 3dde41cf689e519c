"""CLI subcommands, exit codes, and file outputs."""

import base64
import contextlib
import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ltgcd.cli import cli
from ltgcd.data import EmbeddingDataset, write_dataset
from ltgcd.model import Prototypes, init_head, save_checkpoint
from ltgcd.rng import derive_stream
from support import replace_member


CONFIG = """
epochs = 2
batch_size = 64
seed = 0
num_classes = 6
num_known = 3
samples_per_known = 60
rho = 3.0
dim = 16
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(CONFIG)
    return path


def untrained_checkpoint(path, d):
    """A checkpoint of a seeded untrained d-64-32 head with 20 prototypes."""
    rng = derive_stream(0, "test")
    raw = rng.standard_normal((20, 32))
    save_checkpoint(path, init_head(d, 64, 32, rng),
                    Prototypes(M=raw / np.linalg.norm(raw, axis=1, keepdims=True)))
    return path


def npz_bytes(arrays):
    """The npz of the arrays of ``arrays`` that are not None."""
    buf = io.BytesIO()
    np.savez(buf, **{name: arr for name, arr in arrays.items() if arr is not None})
    return buf.getvalue()


def v1_json(arrays):
    """The arrays as a checkpoint of the retired JSON format: shapes plus
    base64 float64 buffers under a format tag."""
    packed = {name: {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode()}
              for name, arr in arrays.items()}
    return json.dumps({"format": "ltgcd-checkpoint-v1", "prototypes": packed.pop("prototypes"),
                       "params": packed}).encode()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTrainCommand:
    def test_happy_path_writes_run_files(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        code = cli(["train", "--config", str(config_file), "--seed", "42",
                    "--out", str(out)])
        assert code == 0
        assert (out / "run_config.json").exists()
        assert (out / "train_log.csv").exists()
        assert (out / "checkpoint.npz").exists()
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == ["seed", "rho", "alpha", "beta", "all", "known", "un1", "un2"]
        assert rows[1][0] == "42"
        echo = json.loads((out / "run_config.json").read_text())
        assert echo["seed"] == 42 and echo["epochs"] == 2

    def test_augmentation_is_a_config_key_and_a_flag_overrides_it(self, tmp_path):
        config = tmp_path / "aug.ini"
        config.write_text(CONFIG + "noise_sigma = 0.0\n")
        from_file, from_flag = tmp_path / "file", tmp_path / "flag"
        assert cli(["train", "--config", str(config), "--out", str(from_file)]) == 0
        assert cli(["train", "--config", str(config), "--noise-sigma", "0.2",
                    "--out", str(from_flag)]) == 0
        echo = json.loads((from_file / "run_config.json").read_text())
        assert echo["noise_sigma"] == 0.0 and echo["drop_prob"] == 0.1
        echo = json.loads((from_flag / "run_config.json").read_text())
        assert echo["noise_sigma"] == 0.2

    def test_invalid_rho_is_validation_error(self, tmp_path, config_file):
        code = cli(["train", "--config", str(config_file), "--rho", "-1",
                    "--out", str(tmp_path / "x")])
        assert code == 1

    def test_trains_from_dataset_manifest(self, tmp_path, config_file):
        data_dir = tmp_path / "data"
        assert cli(["gen", "--config", str(config_file), "--out", str(data_dir)]) == 0
        # the npz is the whole dataset
        assert list(data_dir.iterdir()) == [data_dir / "data.npz"]
        code = cli(["train", "--config", str(config_file),
                    "--dataset", str(data_dir / "data.npz"), "--out", str(tmp_path / "run")])
        assert code == 0
        # a loaded dataset does not record its rho, so the cell stays empty
        _, row = read_csv(tmp_path / "run" / "metrics.csv")
        assert row[1] == "" and row[2] != "" and row[3] != ""

    @pytest.mark.parametrize("flag", ["--rho", "--sep"])
    def test_split_flag_with_dataset_is_usage_error(self, tmp_path, config_file, capsys, flag):
        code = cli(["train", "--config", str(config_file), flag, "3",
                    "--dataset", str(tmp_path / "data.npz"),
                    "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ltgcd train")
        assert f"argument {flag}: not allowed with argument --dataset" in err
        assert not (tmp_path / "run").exists()

    def test_run_that_steps_no_batch_exits_2_without_checkpoint(
        self, tmp_path, config_file, capsys
    ):
        # batch 1 never holds the 2 unlabeled rows a step needs
        out = tmp_path / "run"
        code = cli(["train", "--config", str(config_file), "--batch", "1", "--out", str(out)])
        assert code == 2
        assert "training failed: epoch 0 stepped no batch" in capsys.readouterr().err
        assert (out / "run_config.json").exists() and (out / "train_log.csv").exists()
        assert not (out / "checkpoint.npz").exists()
        assert not (out / "metrics.csv").exists()

    def test_failed_run_deletes_an_earlier_runs_model_and_metrics(
        self, tmp_path, config_file, capsys
    ):
        # a later eval of the directory must not score the earlier run's model
        out = tmp_path / "run"
        assert cli(["train", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "checkpoint.npz").exists() and (out / "metrics.csv").exists()
        code = cli(["train", "--config", str(config_file), "--batch", "1", "--out", str(out)])
        assert code == 2
        assert "training failed" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json", "train_log.csv"]

    def test_single_class_manifest_is_validation_error(self, tmp_path, config_file, capsys):
        rng = derive_stream(0, "test")
        data = EmbeddingDataset(
            points=rng.standard_normal((8, 16)), labels=np.zeros(8, dtype=np.int64),
            is_labeled=np.arange(8) < 4, num_classes=1,
        )
        code = cli(["train", "--config", str(config_file), "--dataset",
                    str(write_dataset(data, tmp_path / "data")), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "need at least 2 classes, got 1" in capsys.readouterr().err

    def test_more_unknown_classes_than_unlabeled_rows_exits_1_naming_the_file(
        self, tmp_path, config_file, capsys
    ):
        # class 0 is known; classes 1-4 are unknown, with 3 unlabeled rows
        # for the k-means++ seeds of their 4 prototypes
        npz = tmp_path / "d.npz"
        np.savez(npz, points=derive_stream(0, "test").standard_normal((5, 16)),
                 labels=np.array([0, 0, 1, 2, 3]), is_labeled=np.arange(5) < 2,
                 num_classes=np.int64(5))
        code = cli(["train", "--config", str(config_file), "--dataset", str(npz),
                    "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"ltgcd: invalid input: {npz}: 4 unknown classes but only 3 unlabeled rows "
            "to seed their prototypes\n")
        assert not (tmp_path / "run").exists()


class TestEvalCommand:
    def test_missing_checkpoint_is_runtime_failure(self, tmp_path, config_file, capsys):
        data_dir = tmp_path / "data"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        code = cli(["eval", "--checkpoint", str(tmp_path / "missing.npz"),
                    "--dataset", str(data_dir / "data.npz")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    # Each edit maps the bytes and arrays of a valid checkpoint, and the data
    # directory, to the bytes of the checkpoint file.
    @pytest.mark.parametrize("edit, shown", [
        (lambda good, arrays, data: v1_json(arrays),
         "not an npz archive"),
        (lambda good, arrays, data: good[:len(good) // 2],
         "cannot read as npz (BadZipFile: "),
        (lambda good, arrays, data: (data / "data.npz").read_bytes(),
         "expected the arrays ['W1', 'b1', 'W2', 'b2', 'prototypes'], "
         "got ['points', 'labels', 'is_labeled', 'num_classes']"),
        (lambda good, arrays, data: npz_bytes({**arrays, "b2": None}),
         "expected the arrays ['W1', 'b1', 'W2', 'b2', 'prototypes'], "
         "got ['W1', 'b1', 'W2', 'prototypes']"),
        (lambda good, arrays, data: npz_bytes({**arrays, "W1": arrays["W1"].astype(np.float32)}),
         "W1 must be native float64, got float32"),
        (lambda good, arrays, data: npz_bytes({**arrays, "prototypes": 2 * arrays["prototypes"]}),
         "prototype rows must be unit-norm"),
        (lambda good, arrays, data: replace_member(good, "W1.npy", b"W1 as text"),
         "W1 is not a .npy array"),
    ], ids=["v1-json", "truncated", "dataset-npz", "missing-array", "float32-W1",
            "non-unit-prototypes", "raw-member"])
    def test_malformed_checkpoint_names_its_file(self, tmp_path, config_file, capsys,
                                                 edit, shown):
        data_dir = tmp_path / "data"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        ckpt = untrained_checkpoint(tmp_path / "ckpt.npz", 16)
        with np.load(ckpt) as archive:
            arrays = dict(archive)
        ckpt.write_bytes(edit(ckpt.read_bytes(), arrays, data_dir))
        capsys.readouterr()
        code = cli(["eval", "--checkpoint", str(ckpt),
                    "--dataset", str(data_dir / "data.npz")])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"ltgcd: error: {ckpt}: {shown}")

    def test_non_finite_checkpoint_exits_2_naming_the_array(self, tmp_path, config_file, capsys):
        data_dir, ckpt = tmp_path / "data", tmp_path / "ckpt.npz"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        rng = derive_stream(0, "test")
        head = init_head(16, 5, 4, rng)
        head.W2[:] = np.nan
        raw = rng.standard_normal((6, 4))
        save_checkpoint(ckpt, head, Prototypes(M=raw / np.linalg.norm(raw, axis=1, keepdims=True)))
        code = cli(["eval", "--checkpoint", str(ckpt),
                    "--dataset", str(data_dir / "data.npz")])
        assert code == 2
        assert f"ltgcd: error: {ckpt}: W2 has a non-finite value" in capsys.readouterr().err

    def test_checkpoint_dimension_mismatch_is_validation_error(
        self, tmp_path, config_file, capsys
    ):
        data_dir = tmp_path / "data"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        rng = derive_stream(0, "test")
        raw = rng.standard_normal((6, 4))
        save_checkpoint(tmp_path / "ckpt.npz", init_head(8, 5, 4, rng),
                        Prototypes(M=raw / np.linalg.norm(raw, axis=1, keepdims=True)))
        code = cli(["eval", "--checkpoint", str(tmp_path / "ckpt.npz"),
                    "--dataset", str(data_dir / "data.npz")])
        assert code == 1
        err = capsys.readouterr().err
        assert "d=8" in err and "d=16" in err

    def test_scores_a_trained_checkpoint(self, tmp_path, config_file, capsys):
        data_dir = tmp_path / "data"
        run_dir = tmp_path / "run"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        cli(["train", "--config", str(config_file),
             "--dataset", str(data_dir / "data.npz"),
             "--out", str(run_dir)])
        capsys.readouterr()
        code = cli(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
                    "--dataset", str(data_dir / "data.npz"),
                    "--config", str(config_file)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("seed,rho,alpha,beta")
        assert len(lines[1].split(",")) == 8


    def test_echo_flags_are_usage_errors(self, tmp_path):
        code = cli(["eval", "--checkpoint", str(tmp_path / "ckpt.npz"),
                    "--dataset", str(tmp_path / "data.npz"), "--rho", "5"])
        assert code == 1

    def test_metrics_csv_leaves_echo_cells_empty(self, tmp_path, config_file):
        data_dir, run_dir, eval_dir = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        dataset = str(data_dir / "data.npz")
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        cli(["train", "--config", str(config_file), "--dataset", dataset,
             "--out", str(run_dir)])
        code = cli(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
                    "--dataset", dataset, "--seed", "7", "--out", str(eval_dir)])
        assert code == 0
        header, row = read_csv(eval_dir / "metrics.csv")
        assert header == ["seed", "rho", "alpha", "beta", "all", "known", "un1", "un2"]
        assert row[:4] == ["7", "", "", ""]
        assert all(cell != "" for cell in row[4:])

    def test_truncated_npz_exits_2_naming_the_file(self, tmp_path, config_file, capsys):
        data_dir = tmp_path / "data"
        assert cli(["gen", "--config", str(config_file), "--out", str(data_dir)]) == 0
        npz = data_dir / "data.npz"
        npz.write_bytes(npz.read_bytes()[:1000])
        capsys.readouterr()
        code = cli(["eval", "--checkpoint", str(untrained_checkpoint(tmp_path / "c.npz", 16)),
                    "--dataset", str(data_dir / "data.npz")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"ltgcd: error: {npz}: cannot read as npz (BadZipFile: ")

    def test_more_classes_than_rows_exits_2_naming_the_file(self, tmp_path, capsys):
        # bounded as it loads, before any table is sized by the class count
        npz = tmp_path / "d.npz"
        np.savez(npz, points=np.zeros((3, 16)), labels=np.array([0, 0, 1]),
                 is_labeled=np.array([True, False, False]), num_classes=np.int64(5))
        code = cli(["eval", "--checkpoint", str(untrained_checkpoint(tmp_path / "c.npz", 16)),
                    "--dataset", str(npz)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"ltgcd: error: {npz}: num_classes must be in [1, 3], got 5"]

    def test_non_npz_data_entry_exits_2_naming_the_manifest(self, tmp_path, config_file, capsys):
        # a JSON manifest of the old two-file layout, beside the npz it names
        data_dir = tmp_path / "data"
        assert cli(["gen", "--config", str(config_file), "--out", str(data_dir)]) == 0
        manifest = data_dir / "data.manifest.json"
        manifest.write_text(json.dumps(
            {"data": "data.npz", "C": 6, "d": 16, "known_classes": [0, 1, 2]}, indent=2) + "\n")
        capsys.readouterr()
        code = cli(["eval", "--checkpoint", str(untrained_checkpoint(tmp_path / "c.npz", 16)),
                    "--dataset", str(manifest)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"ltgcd: error: {manifest}: not an npz archive"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHugeFeature:
    """A finite 1e200 first feature on data row 5 of a desk dataset, edited
    into its npz: the loader accepts it, and the head's row norm overflows to
    inf on that row. The named error is all the user sees: numpy warns of no
    overflow."""

    @pytest.fixture(params=["npz"])
    def dataset(self, tmp_path, request):
        data_dir = tmp_path / "data"
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
        assert cli(["gen", "--config", str(desk), "--out", str(data_dir)]) == 0
        data_file = data_dir / f"data.{request.param}"
        with np.load(data_file) as archive:
            arrays = dict(archive)
        arrays["points"][5, 0] = 1e200
        np.savez(data_file, **arrays)
        return data_file

    def test_eval_exits_2_naming_the_row(self, tmp_path, dataset, capsys):
        code = cli(["eval", "--checkpoint", str(untrained_checkpoint(tmp_path / "ckpt.npz", 64)),
                    "--dataset", str(dataset)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("ltgcd: error: degenerate pre-normalization feature at row 5 "
                               "(norm inf")

    def test_train_records_failed(self, tmp_path, config_file, dataset, capsys):
        out = tmp_path / "run"
        code = cli(["train", "--config", str(config_file), "--dataset", str(dataset),
                    "--out", str(out)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("training failed: degenerate pre-normalization feature at row 5 ")
        assert (out / "train_log.csv").exists() and not (out / "checkpoint.npz").exists()


@pytest.mark.filterwarnings("error")
class TestScaledPoints:
    """Training steps run in float32, so a row's pre-normalization norm must
    stay below the square root of float32's largest value (about 1.8e19).
    Desk points scaled by 1e18 train; scaled by 1e19 the first step's norms
    overflow, the run fails naming its first row and step, and numpy warns
    of nothing."""

    def scaled_desk(self, tmp_path, scale):
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
        assert cli(["gen", "--config", str(desk), "--out", str(tmp_path / "data")]) == 0
        data_file = tmp_path / "data" / "data.npz"
        with np.load(data_file) as archive:
            arrays = dict(archive)
        arrays["points"] *= scale
        np.savez(data_file, **arrays)
        return ["train", "--config", str(desk), "--dataset", str(data_file), "--epochs", "1",
                "--out", str(tmp_path / "run")]

    def test_points_scaled_by_1e18_train(self, tmp_path, capsys):
        assert cli(self.scaled_desk(tmp_path, 1e18)) == 0
        assert capsys.readouterr().err == ""

    def test_points_scaled_by_1e19_fail_at_the_first_step(self, tmp_path, capsys):
        assert cli(self.scaled_desk(tmp_path, 1e19)) == 2
        assert re.fullmatch(r"training failed: degenerate pre-normalization feature at row 0 "
                            r"\(norm inf, [^)]*\) at epoch 0, batch 0\n",
                            capsys.readouterr().err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNumericSettings:
    """A non-finite setting exits 1 before any output, naming its key; a
    finite one that makes training diverge exits 2, naming the epoch and the
    batch. Either way standard error is one line: numpy warns of nothing."""

    @pytest.mark.parametrize("key", ["tau", "tau_p", "lambda", "alpha", "beta", "mu", "lr0",
                                     "momentum", "weight_decay", "noise_sigma", "drop_prob",
                                     "rho", "labeled_fraction"])
    def test_infinite_config_value_exits_1(self, tmp_path, capsys, key):
        config = tmp_path / "c.ini"
        config.write_text(CONFIG + f"{key} = inf\n")
        out = tmp_path / "run"
        assert cli(["train", "--config", str(config), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"ltgcd: invalid input: {key} must be finite, got inf"
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["gen", "--sep", "inf"], "sep"),
        (["train", "--sep", "inf"], "sep"),
        (["sweep", "--sep", "inf"], "sep"),
        (["sweep", "--alpha", "0,inf"], "alpha"),
        (["sweep", "--rho=-inf"], "rho"),
    ])
    def test_infinite_flag_exits_1(self, tmp_path, config_file, capsys, argv, key):
        out = tmp_path / "out"
        assert cli([*argv, "--config", str(config_file), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"ltgcd: invalid input: {key} must be finite, got ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, shown", [
        ("--rho", "5e-320", "samples_per_known/rho is 2**63 or more (60/5e-320)"),
        ("--rho", "1e-300", "samples_per_known/rho is 2**63 or more (60/1e-300)"),
        ("--sep", "1e308", "sep is too large: the class means overflow, got 1e+308"),
    ])
    def test_overflowing_split_flag_exits_1(self, tmp_path, config_file, capsys, flag, value,
                                            shown):
        out = tmp_path / "out"
        assert cli(["gen", flag, value, "--config", str(config_file), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"ltgcd: invalid input: {shown}"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("lr0", "1e300"), ("tau", "1e-300"),
                                            ("beta", "1e308"), ("lr0", "1e20"),
                                            ("lr0", "1e100"), ("noise_sigma", "1e200"),
                                            ("weight_decay", "1e50"), ("lambda", "1e100")])
    def test_diverging_value_exits_2_with_one_line(self, tmp_path, capsys, key, value):
        config = tmp_path / "c.ini"
        config.write_text(CONFIG + f"{key} = {value}\n")
        out = tmp_path / "run"
        assert cli(["train", "--config", str(config), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        # tau and beta overflow the loss itself; the others first break a row
        # norm or a gradient
        cause = "non-finite loss" if key in ("tau", "beta") else ".+"
        assert re.fullmatch(rf"training failed: {cause} at epoch \d+, batch \d+", line)
        assert (out / "train_log.csv").exists() and not (out / "checkpoint.npz").exists()


class TestSweepCommand:
    def test_sweep_writes_artifacts(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        code = cli(["sweep", "--config", str(config_file), "--beta", "0,2",
                    "--seeds", "0,1", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "sweep_beta.svg").exists()
        assert len(read_csv(out / "results.csv")) == 1 + 4

    def test_empty_seed_list_is_validation_error(self, tmp_path, config_file):
        code = cli(["sweep", "--config", str(config_file), "--seeds", ",",
                    "--out", str(tmp_path / "s")])
        assert code == 1

    def test_fractional_seed_is_validation_error(self, tmp_path, config_file, capsys):
        code = cli(["sweep", "--config", str(config_file), "--seeds", "1.5",
                    "--out", str(tmp_path / "s")])
        assert code == 1
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, shown", [
        ("--seeds=-1", "seed must be a 64-bit unsigned integer, got -1"),
        ("--rho=0", "rho must be > 0, got 0.0"),
        ("--alpha=-1", "alpha must be >= 0, got -1.0"),
        ("--sep=-1", "sep must be >= 0, got -1.0"),
        ("--noise-sigma=-1", "noise_sigma must be >= 0, got -1.0"),
        ("--drop-prob=1", "drop_prob must be in [0, 1), got 1.0"),
        ("--beta=0,0", "plan field betas repeats a value"),
        ("--seeds=1,1", "plan field seeds repeats a value"),
        ("--workers=0", "workers must be >= 1"),
    ])
    def test_invalid_plan_value_exits_1_before_any_run(
        self, tmp_path, config_file, capsys, flag, shown
    ):
        out = tmp_path / "s"
        code = cli(["sweep", "--config", str(config_file), flag, "--out", str(out)])
        assert code == 1
        assert shown in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_is_a_usage_error(self, tmp_path, config_file, capsys):
        # --seeds sets every cell's seed; --seed is no abbreviation of it
        code = cli(["sweep", "--config", str(config_file), "--seed", "3",
                    "--out", str(tmp_path / "s")])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()
        assert not (tmp_path / "s").exists()

    def test_failed_runs_exit_2_and_name_failures_csv(self, tmp_path, config_file, capsys):
        # batch 1 never holds the 2 unlabeled rows a step needs, so every run fails
        out = tmp_path / "s"
        code = cli(["sweep", "--config", str(config_file), "--batch", "1",
                    "--seeds", "0", "--out", str(out)])
        assert code == 2
        assert "failures.csv" in capsys.readouterr().err
        assert len(read_csv(out / "failures.csv")) == 1 + 1

    def test_an_earlier_sweeps_failures_and_plots_are_deleted(self, tmp_path, config_file):
        out = tmp_path / "s"
        code = cli(["sweep", "--config", str(config_file), "--rho", "3,5", "--batch", "1",
                    "--seeds", "0", "--out", str(out)])
        assert code == 2
        assert (out / "failures.csv").exists() and (out / "sweep_rho.svg").exists()
        code = cli(["sweep", "--config", str(config_file), "--alpha", "0,1",
                    "--seeds", "0", "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "results.csv", "summary.csv", "sweep_alpha.svg"]


class TestSplitRule:
    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_no_labeled_row_per_known_class_exits_1_without_out(
        self, tmp_path, capsys, command
    ):
        # 3 * 0.1 labeled rows per known class rounds to 0
        config = tmp_path / "c.ini"
        config.write_text(CONFIG.replace("samples_per_known = 60", "samples_per_known = 3")
                          + "labeled_fraction = 0.1\n")
        out = tmp_path / "out"
        code = cli([command, "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "samples_per_known * labeled_fraction rounds to 0" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_split_keys_are_checked_where_the_split_goes_unused(
        self, tmp_path, config_file, capsys, command
    ):
        data_dir, out = tmp_path / "data", tmp_path / "out"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG + "labeled_fraction = 1.5\n")
        argv = {"train": ["--out", str(out)],
                "eval": ["--checkpoint", str(tmp_path / "missing.npz")]}[command]
        code = cli([command, "--config", str(bad),
                    "--dataset", str(data_dir / "data.npz"), *argv])
        assert code == 1
        assert "labeled_fraction must be in (0, 1), got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_no_known_class_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "c.ini"
        config.write_text(CONFIG.replace("num_known = 3", "num_known = 0"))
        out = tmp_path / "data"
        assert cli(["gen", "--config", str(config), "--out", str(out)]) == 1
        assert "num_known must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert cli(["train", "--nonsense", "1"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("argv, usage", [
        (["sweep", "--seed", "99"], "usage: ltgcd sweep"),
        (["train", "--epochs", "x"], "usage: ltgcd train"),
    ])
    def test_bad_flag_shows_its_subcommand_usage(self, capsys, argv, usage):
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(usage)
        assert f"ltgcd {argv[0]}: error: " in err

    def test_unrecognized_flag_is_reported_with_its_subcommand_usage(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert cli(["sweep", "--seed", "99", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ltgcd sweep")
        assert "ltgcd sweep: error: unrecognized arguments: --seed 99" in err
        assert not out.exists()

    def test_unknown_config_key_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("not_a_key = 3\n")
        assert cli(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_missing_out_is_validation_error(self, config_file):
        assert cli(["train", "--config", str(config_file)]) == 1


def test_sigint_stops_train_with_exit_130_one_line_and_no_child(tmp_path, config_file):
    # BLAS pinned to one thread, so on 2 CPUs train forks its helper process
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out = tmp_path / "out"
    trainer = subprocess.Popen(
        [sys.executable, "-c", "from ltgcd.cli import main; main()", "train",
         "--config", str(config_file), "--epochs", "100000", "--out", str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    children = Path(f"/proc/{trainer.pid}/task/{trainer.pid}/children")
    try:
        deadline = time.monotonic() + 60
        while not children.read_text().split() and time.monotonic() < deadline:
            time.sleep(0.05)
        helpers = [int(pid) for pid in children.read_text().split()]
        if not helpers:   # a host without a second CPU trains in one process
            time.sleep(2)
        assert trainer.poll() is None   # still training
        trainer.send_signal(signal.SIGINT)
        stdout, stderr = trainer.communicate(timeout=30)
    finally:
        trainer.kill()
        trainer.wait(timeout=10)
    assert (trainer.returncode, stdout, stderr) == (130, "", "ltgcd: interrupted\n")
    for pid in helpers:
        assert not Path(f"/proc/{pid}").exists()
    assert not out.exists()


def test_sigint_to_a_sweeps_main_process_stops_its_workers(tmp_path, config_file):
    # the signal goes to the main process alone, as a kill(1) of its pid does
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = tmp_path / "out"
    sweeper = subprocess.Popen(
        [sys.executable, "-c", "from ltgcd.cli import main; main()", "sweep",
         "--config", str(config_file), "--epochs", "100000", "--beta", "0,2", "--seeds", "0",
         "--workers", "2", "--out", str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    children = Path(f"/proc/{sweeper.pid}/task/{sweeper.pid}/children")
    try:
        deadline = time.monotonic() + 60
        while len(children.read_text().split()) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        workers = [int(pid) for pid in children.read_text().split()]
        assert len(workers) == 2
        time.sleep(0.5)   # the workers are training
        assert sweeper.poll() is None
        sweeper.send_signal(signal.SIGINT)
        stdout, stderr = sweeper.communicate(timeout=30)
    finally:   # no process of the session outlives a failure
        with contextlib.suppress(ProcessLookupError):
            os.killpg(sweeper.pid, signal.SIGKILL)
        sweeper.wait(timeout=10)
    assert (sweeper.returncode, stdout, stderr) == (130, "", "ltgcd: interrupted\n")
    for pid in workers:
        assert not Path(f"/proc/{pid}").exists()
