"""CLI subcommands, exit codes, and file outputs."""

import csv
import json

import numpy as np
import pytest

from ltgcd.cli import cli
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


class TestEvalCommand:
    def test_missing_checkpoint_is_runtime_failure(self, tmp_path, config_file, capsys):
        data_dir = tmp_path / "data"
        cli(["gen", "--config", str(config_file), "--out", str(data_dir)])
        code = cli(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                    "--dataset", str(data_dir / "data.manifest.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

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

    def test_failed_runs_exit_2_and_name_failures_csv(self, tmp_path, config_file, capsys):
        # batch 1 never holds the 2 unlabeled rows a step needs, so every run fails
        out = tmp_path / "s"
        code = cli(["sweep", "--config", str(config_file), "--batch", "1",
                    "--seeds", "0", "--out", str(out)])
        assert code == 2
        assert "failures.csv" in capsys.readouterr().err
        assert len(read_csv(out / "failures.csv")) == 1 + 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert cli(["train", "--nonsense", "1"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_config_key_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("not_a_key = 3\n")
        assert cli(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_missing_out_is_validation_error(self, config_file):
        assert cli(["train", "--config", str(config_file)]) == 1
