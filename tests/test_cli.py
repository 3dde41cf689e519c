"""CLI subcommands, exit codes, and file outputs."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ltgcd.cli import cli
from ltgcd.data import EmbeddingDataset, write_dataset
from ltgcd.model import Prototypes, init_head, save_checkpoint
from ltgcd.rng import derive_stream


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
        assert (out / "checkpoint.json").exists()
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
        manifest = data_dir / "data.manifest.json"
        assert manifest.exists()
        code = cli(["train", "--config", str(config_file),
                    "--dataset", str(manifest), "--out", str(tmp_path / "run")])
        assert code == 0
        # a loaded dataset does not record its rho, so the cell stays empty
        _, row = read_csv(tmp_path / "run" / "metrics.csv")
        assert row[1] == "" and row[2] != "" and row[3] != ""

    @pytest.mark.parametrize("flag", ["--rho", "--sep"])
    def test_split_flag_with_dataset_is_usage_error(self, tmp_path, config_file, capsys, flag):
        code = cli(["train", "--config", str(config_file), flag, "3",
                    "--dataset", str(tmp_path / "data.manifest.json"),
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
        assert not (out / "checkpoint.json").exists()
        assert not (out / "metrics.csv").exists()

    def test_single_class_manifest_is_validation_error(self, tmp_path, config_file, capsys):
        rng = derive_stream(0, "test")
        data = EmbeddingDataset(
            points=rng.standard_normal((8, 16)), labels=np.zeros(8, dtype=np.int64),
            is_labeled=np.arange(8) < 4, known_classes=frozenset({0}),
            unknown_classes=frozenset(), num_classes=1, dim=16,
        )
        manifest = write_dataset(data, tmp_path / "data")
        code = cli(["train", "--config", str(config_file),
                    "--dataset", str(manifest), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "need at least 2 classes, got 1" in capsys.readouterr().err


class TestEvalCommand:
    def test_missing_checkpoint_is_runtime_failure(self, tmp_path, config_file, capsys):
        data_dir = tmp_path / "data"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        code = cli(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                    "--dataset", str(data_dir / "data.manifest.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("text, shown", [
        ('{"format": 1', "invalid JSON (Expecting ',' delimiter"),
        ('{"format": "ltgcd-checkpoint-v1", "params": {}}', "missing entry 'W1'"),
        ('{"format": "ltgcd-checkpoint-v1", "params": {"W1": 5}}',
         "entry 'W1' is not a shape/data pair"),
        ('{"format": "ltgcd-checkpoint-v1", "params": {"W1": {"shape": [2.0], "data": ""}}}',
         "entry 'W1' is not a shape/data pair"),
        ('[1, 2]', "expected a JSON object, got list"),
    ])
    def test_malformed_checkpoint_names_its_file(self, tmp_path, config_file, capsys,
                                                 text, shown):
        data_dir, ckpt = tmp_path / "data", tmp_path / "ckpt.json"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        ckpt.write_text(text)
        code = cli(["eval", "--checkpoint", str(ckpt),
                    "--dataset", str(data_dir / "data.manifest.json")])
        assert code == 2
        assert f"ltgcd: error: {ckpt}: {shown}" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_2_naming_the_array(self, tmp_path, config_file, capsys):
        data_dir, ckpt = tmp_path / "data", tmp_path / "ckpt.json"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        rng = derive_stream(0, "test")
        head = init_head(16, 5, 4, rng)
        head.W2[:] = np.nan
        raw = rng.standard_normal((6, 4))
        save_checkpoint(ckpt, head, Prototypes(M=raw / np.linalg.norm(raw, axis=1, keepdims=True)))
        code = cli(["eval", "--checkpoint", str(ckpt),
                    "--dataset", str(data_dir / "data.manifest.json")])
        assert code == 2
        assert f"ltgcd: error: {ckpt}: W2 has a non-finite value" in capsys.readouterr().err

    def test_checkpoint_dimension_mismatch_is_validation_error(
        self, tmp_path, config_file, capsys
    ):
        data_dir = tmp_path / "data"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        rng = derive_stream(0, "test")
        raw = rng.standard_normal((6, 4))
        save_checkpoint(tmp_path / "ckpt.json", init_head(8, 5, 4, rng),
                        Prototypes(M=raw / np.linalg.norm(raw, axis=1, keepdims=True)))
        code = cli(["eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                    "--dataset", str(data_dir / "data.manifest.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "d=8" in err and "d=16" in err

    def test_scores_a_trained_checkpoint(self, tmp_path, config_file, capsys):
        data_dir = tmp_path / "data"
        run_dir = tmp_path / "run"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        cli(["train", "--config", str(config_file),
             "--dataset", str(data_dir / "data.manifest.json"),
             "--out", str(run_dir)])
        capsys.readouterr()
        code = cli(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--dataset", str(data_dir / "data.manifest.json"),
                    "--config", str(config_file)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("seed,rho,alpha,beta")
        assert len(lines[1].split(",")) == 8


    def test_echo_flags_are_usage_errors(self, tmp_path):
        code = cli(["eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                    "--dataset", str(tmp_path / "data.manifest.json"), "--rho", "5"])
        assert code == 1

    def test_metrics_csv_leaves_echo_cells_empty(self, tmp_path, config_file):
        data_dir, run_dir, eval_dir = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        manifest = str(data_dir / "data.manifest.json")
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        cli(["train", "--config", str(config_file), "--dataset", manifest,
             "--out", str(run_dir)])
        code = cli(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--dataset", manifest, "--seed", "7", "--out", str(eval_dir)])
        assert code == 0
        header, row = read_csv(eval_dir / "metrics.csv")
        assert header == ["seed", "rho", "alpha", "beta", "all", "known", "un1", "un2"]
        assert row[:4] == ["7", "", "", ""]
        assert all(cell != "" for cell in row[4:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHugeFeature:
    """A finite 1e200 feature cell on line 7 of a desk dataset: the loader
    accepts it, and the head's row norm overflows to inf on data row 5. The
    named error is all the user sees: numpy warns of no overflow."""

    @pytest.fixture
    def manifest(self, tmp_path):
        data_dir = tmp_path / "data"
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
        assert cli(["gen", "--config", str(desk), "--out", str(data_dir)]) == 0
        csv_path = data_dir / "data.csv"
        lines = csv_path.read_bytes().split(b"\r\n")
        cells = lines[6].split(b",")
        cells[3] = b"1e200"
        lines[6] = b",".join(cells)
        csv_path.write_bytes(b"\r\n".join(lines))
        return data_dir / "data.manifest.json"

    def test_eval_exits_2_naming_the_row(self, tmp_path, manifest, capsys):
        rng = derive_stream(0, "test")
        raw = rng.standard_normal((20, 32))
        save_checkpoint(tmp_path / "ckpt.json", init_head(64, 64, 32, rng),
                        Prototypes(M=raw / np.linalg.norm(raw, axis=1, keepdims=True)))
        code = cli(["eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                    "--dataset", str(manifest)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("ltgcd: error: degenerate pre-normalization feature at row 5 "
                               "(norm inf")

    def test_train_records_failed(self, tmp_path, config_file, manifest, capsys):
        out = tmp_path / "run"
        code = cli(["train", "--config", str(config_file), "--dataset", str(manifest),
                    "--out", str(out)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("training failed: degenerate pre-normalization feature at row 5 ")
        assert (out / "train_log.csv").exists() and not (out / "checkpoint.json").exists()


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
        assert (out / "train_log.csv").exists() and not (out / "checkpoint.json").exists()


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
                "eval": ["--checkpoint", str(tmp_path / "missing.json")]}[command]
        code = cli([command, "--config", str(bad),
                    "--dataset", str(data_dir / "data.manifest.json"), *argv])
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
