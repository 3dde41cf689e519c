"""Training runs, sweep artifacts, and end-to-end determinism."""

import csv
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ltgcd.config import Hyperparams, SplitSpec, build_params, read_config_file
from ltgcd.data import EmbeddingDataset, generate_mixture
from ltgcd.errors import ValidationError
from ltgcd.evaluation import evaluate
from ltgcd.harness import (
    DEFAULT_HIDDEN,
    DEFAULT_OUT_DIM,
    ExperimentPlan,
    sweep,
    train_one,
    write_train_log,
)
from ltgcd.model import init_head, init_prototypes, forward
from ltgcd.rng import derive_stream
from ltgcd.svg import _SERIES_COLORS as SERIES_COLORS


DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
SMALL_SPEC = dict(num_classes=6, num_known=3, samples_per_known=60, rho=3.0, dim=16)


def small_data(seed=0, sep=5.0, **overrides):
    kwargs = dict(SMALL_SPEC)
    kwargs.update(overrides)
    return generate_mixture(SplitSpec(**kwargs), sep, derive_stream(seed, "split"))


def small_hp(**overrides):
    kwargs = dict(epochs=4, batch_size=64, seed=0)
    kwargs.update(overrides)
    return Hyperparams(**kwargs)


class TestTrainOne:
    def test_zero_epochs_equals_fresh_model_evaluation(self):
        data = small_data()
        hp = small_hp(epochs=0)
        record = train_one(data, hp)
        assert record.status == "ok"
        assert record.epoch_logs == []

        head = init_head(data.dim, DEFAULT_HIDDEN, DEFAULT_OUT_DIM,
                         derive_stream(hp.seed, "init"))
        feats = forward(head, data.points)
        init_prototypes(feats, data.labels, data.is_labeled, data.num_classes,
                        derive_stream(hp.seed, "proto-seed"))
        assert record.metrics == evaluate(head, data, hp.seed)

    def test_logs_one_record_per_epoch(self):
        record = train_one(small_data(), small_hp(epochs=5))
        assert record.status == "ok"
        assert [log.epoch for log in record.epoch_logs] == list(range(5))
        assert all(np.isfinite(log.l_overall) for log in record.epoch_logs)

    def test_identical_config_and_seed_reproduce_run_exactly(self):
        a = train_one(small_data(seed=3), small_hp(seed=3, epochs=3))
        b = train_one(small_data(seed=3), small_hp(seed=3, epochs=3))
        assert a.metrics == b.metrics
        for la, lb in zip(a.epoch_logs, b.epoch_logs):
            assert la.l_overall == lb.l_overall
            assert np.array_equal(la.prior_r, lb.prior_r)
        for name, value in a.head.params().items():
            assert np.array_equal(value, b.head.params()[name])

    def test_supervision_helps_known_classes(self):
        # alpha=beta=0 isolates the supervised term; 3-seed mean comparison
        known = {0.0: [], 1.0: []}
        for lam in (0.0, 1.0):
            for seed in (0, 1, 2):
                data = small_data(seed=seed, sep=2.0)
                hp = small_hp(epochs=10, seed=seed, alpha=0.0, beta=0.0, lambda_=lam)
                record = train_one(data, hp)
                known[lam].append(record.metrics.known_acc)
        assert np.mean(known[1.0]) >= np.mean(known[0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")   # a detector speaks, not numpy
    def test_divergence_produces_diagnostic_record(self):
        record = train_one(small_data(), small_hp(lr0=1e200, epochs=3))
        assert record.status == "failed"
        assert record.metrics is None
        assert re.search(r" at epoch \d+, batch \d+$", record.error)

    def test_divergence_in_the_epoch_end_refresh_names_the_epoch(self):
        # weight decay this strong overflows the weights between the last
        # step of an epoch and the refresh forward over the dataset
        hp, split = build_params(read_config_file(DESK_CONFIG))
        data = generate_mixture(split, 5.0, derive_stream(0, "split"))
        record = train_one(data, replace(hp, weight_decay=1e10, epochs=3))
        assert record.status == "failed"
        assert re.fullmatch(r"degenerate pre-normalization feature at row \d+ \(.*\) "
                            r"at the end of epoch \d+", record.error)

    def test_invalid_value_inside_the_loop_propagates(self, monkeypatch):
        # only TrainingDiverged becomes a failed record; a ValidationError
        # mid-run is a bug and must reach the caller
        def broken_loss(*args, **kwargs):
            raise ValidationError("broken invariant")
        monkeypatch.setattr("ltgcd.harness.overall_loss", broken_loss)
        with pytest.raises(ValidationError, match="broken invariant"):
            train_one(small_data(), small_hp(epochs=1))

    def test_run_that_steps_no_batch_fails(self):
        # one row per batch never holds the 2 unlabeled rows a step needs
        record = train_one(small_data(), small_hp(batch_size=1, epochs=2))
        assert record.status == "failed"
        assert record.metrics is None
        assert "epoch 0" in record.error
        assert "batch_size=1" in record.error
        assert record.epoch_logs == []

    def test_trains_with_known_classes_not_starting_at_zero(self):
        # relabel c -> (c + 3) % 6: known classes become {3, 4, 5}
        data = small_data()
        relabeled = EmbeddingDataset(
            points=data.points.copy(),
            labels=(data.labels + 3) % 6,
            is_labeled=data.is_labeled.copy(),
            num_classes=6,
        )
        assert relabeled.known_classes == frozenset({3, 4, 5})
        record = train_one(relabeled, small_hp(epochs=2))
        assert record.status == "ok", record.error
        assert record.metrics.n_all == len(relabeled.unlabeled_indices)

    def test_prior_is_logged_and_on_simplex(self):
        record = train_one(small_data(), small_hp(epochs=3))
        for log in record.epoch_logs:
            assert log.prior_r.shape == (6,)
            assert abs(log.prior_r.sum() - 1.0) <= 1e-9

    def test_bad_augmentation_params_rejected_upfront(self):
        with pytest.raises(ValidationError):
            train_one(small_data(), small_hp(noise_sigma=-0.5))

    def test_config_echo_uses_external_spelling(self):
        record = train_one(small_data(), small_hp(epochs=1))
        assert "lambda" in record.config
        assert "lambda_" not in record.config


def small_plan(out_dir, **overrides):
    kwargs = dict(
        hp=Hyperparams(epochs=2, batch_size=64, seed=0),
        split=SplitSpec(**SMALL_SPEC),
        rhos=(3.0,),
        alphas=(1.0,),
        betas=(0.0, 2.0),
        seeds=(0, 1),
        out_dir=out_dir,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSweep:
    def test_artifacts_and_row_counts(self, tmp_path):
        artifacts = sweep(small_plan(tmp_path))
        rows = read_csv(artifacts["results"])
        assert rows[0] == ["run_id", "seed", "rho", "alpha", "beta", "lambda",
                           "all", "known", "un1", "un2"]
        assert len(rows) == 1 + 4   # 2 betas x 2 seeds
        assert [r[0] for r in rows[1:]] == ["r0000", "r0001", "r0002", "r0003"]

    def test_summary_means_match_hand_computation(self, tmp_path):
        artifacts = sweep(small_plan(tmp_path))
        results = read_csv(artifacts["results"])[1:]
        summary = read_csv(artifacts["summary"])
        header = summary[0]
        assert header == ["rho", "alpha", "beta", "lambda", "metric", "mean", "std", "n"]
        col = {name: i for i, name in enumerate(
            ["run_id", "seed", "rho", "alpha", "beta", "lambda",
             "all", "known", "un1", "un2"])}
        for row in summary[1:]:
            beta, metric = row[2], row[4]
            values = [float(r[col[metric]]) for r in results if r[4] == beta]
            assert len(values) == int(row[7])
            assert abs(float(row[5]) - np.mean(values)) <= 1e-12
            assert abs(float(row[6]) - np.std(values)) <= 1e-12

    def test_svg_written_per_swept_axis(self, tmp_path):
        artifacts = sweep(small_plan(tmp_path))
        assert "svg_beta" in artifacts
        assert "svg_rho" not in artifacts    # single value, not swept
        svg = artifacts["svg_beta"].read_text()
        assert svg.startswith("<svg")
        for name in ("All", "Known", "Un1", "Un2"):
            assert f">{name}</text>" in svg
        assert svg.count("<polyline") == 4

    def test_absent_known_is_an_empty_cell_and_left_out_of_summary_and_plot(self, tmp_path):
        # every known row is labeled, so no unlabeled row is of a known class
        split = SplitSpec(**{**SMALL_SPEC, "samples_per_known": 2, "labeled_fraction": 0.9})
        artifacts = sweep(small_plan(tmp_path, split=split))
        assert "failures" not in artifacts
        header, *results = read_csv(artifacts["results"])
        assert len(results) == 4
        for row in results:
            cells = dict(zip(header, row))
            assert cells["known"] == ""
            assert all(cells[m] != "" for m in ("all", "un1", "un2"))
        summary = read_csv(artifacts["summary"])[1:]
        assert [r[4] for r in summary] == ["all", "un1", "un2"] * 2
        svg = artifacts["svg_beta"].read_text()
        known = SERIES_COLORS["Known"]
        assert f'fill="{known}"' not in svg          # no point
        assert svg.count(f'stroke="{known}"') == 1    # the legend line, no polyline
        assert svg.count("<polyline") == 3

    def test_byte_identical_results_across_invocations(self, tmp_path):
        a = sweep(small_plan(tmp_path / "a"))
        b = sweep(small_plan(tmp_path / "b"))
        assert a["results"].read_bytes() == b["results"].read_bytes()
        assert a["summary"].read_bytes() == b["summary"].read_bytes()

    def test_empty_seed_list_rejected_before_running(self, tmp_path):
        with pytest.raises(ValidationError):
            small_plan(tmp_path, seeds=())

    def test_invalid_seed_rejected_when_plan_is_built(self, tmp_path):
        with pytest.raises(ValidationError, match="got -1"):
            small_plan(tmp_path, seeds=(-1,))

    @pytest.mark.filterwarnings("error::RuntimeWarning")   # a detector speaks, not numpy
    @pytest.mark.parametrize("lr0, workers", [(1e200, 1), (1e100, 1), (1e200, 2)],
                             ids=["1e+200", "1e+100", "1e+200-2-workers"])
    def test_failed_runs_recorded_and_sweep_continues(self, tmp_path, lr0, workers):
        plan = small_plan(tmp_path, workers=workers,
                          hp=Hyperparams(epochs=2, batch_size=64, seed=0, lr0=lr0))
        artifacts = sweep(plan)
        assert "failures" in artifacts
        failures = read_csv(artifacts["failures"])
        assert len(failures) == 1 + 4
        results = read_csv(artifacts["results"])
        assert len(results) == 1   # header only

    def test_worker_pool_matches_sequential(self, tmp_path):
        seq = sweep(small_plan(tmp_path / "seq"))
        par = sweep(small_plan(tmp_path / "par", workers=2))
        assert seq["results"].read_bytes() == par["results"].read_bytes()

    def test_plan_order_is_rho_alpha_beta_seed(self, tmp_path):
        plan = small_plan(tmp_path, rhos=(1.0, 3.0), betas=(0.0,), seeds=(0, 1))
        jobs = plan.jobs()
        assert [(j.split.rho, j.hp.seed) for j in jobs] == [
            (1.0, 0), (1.0, 1), (3.0, 0), (3.0, 1)
        ]


class TestTrainLog:
    def test_one_row_per_epoch_with_prior_columns(self, tmp_path):
        record = train_one(small_data(), small_hp(epochs=3))
        path = write_train_log(tmp_path / "log.csv", record)
        rows = read_csv(path)
        assert rows[0][:7] == ["epoch", "l_ins", "l_sup", "h_prior",
                               "h_uniform", "l_overall", "lr"]
        assert rows[0][7:] == [f"r_{c}" for c in range(6)]
        assert len(rows) == 1 + 3
