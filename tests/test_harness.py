"""Training runs, sweep artifacts, and end-to-end determinism."""

import csv
import errno
import multiprocessing
import os
import re
import select
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ltgcd.config import Hyperparams, SplitSpec, build_params, read_config_file
from ltgcd.data import EmbeddingDataset, generate_mixture
from ltgcd.errors import ValidationError
from ltgcd.evaluation import evaluate
from ltgcd.harness import (
    GROUP_SETTINGS,
    ExperimentPlan,
    _chunks,
    _cpus,
    _DrawAhead,
    _stepped_batches,
    _threads,
    sweep,
    train_group,
    train_one,
    write_train_log,
)
from ltgcd.rng import derive_stream
from ltgcd.svg import _SERIES_COLORS as SERIES_COLORS


ROOT = Path(__file__).resolve().parents[1]
DESK_CONFIG = ROOT / "configs" / "desk.ini"
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
    def test_zero_epochs_is_rejected(self):
        # a run that trains nothing would report status=ok on an untrained head
        with pytest.raises(ValidationError, match=r"^epochs must be >= 1, got 0$"):
            small_hp(epochs=0)

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
        # one batch per epoch, so its one step runs on the initial weights;
        # weight decay this strong then grows them past what the refresh's
        # float32 forward over the dataset can normalize
        hp, split = build_params(read_config_file(DESK_CONFIG))
        data = generate_mixture(split, 5.0, derive_stream(0, "split"))
        record = train_one(data, replace(hp, weight_decay=1e12, epochs=3, batch_size=data.n))
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


def assert_same_record(a, b):
    """Status, error, config, metrics, head, prototypes and epoch logs equal
    bit for bit."""
    assert (a.status, a.error, a.config, a.metrics) == (b.status, b.error, b.config, b.metrics)
    for name, value in a.head.params().items():
        assert value.tobytes() == b.head.params()[name].tobytes(), name
    assert (a.protos is None) == (b.protos is None)
    if a.protos is not None:
        assert a.protos.M.tobytes() == b.protos.M.tobytes()
    assert len(a.epoch_logs) == len(b.epoch_logs)
    for la, lb in zip(a.epoch_logs, b.epoch_logs):
        assert la.prior_r.tobytes() == lb.prior_r.tobytes()
        assert ({k: v for k, v in vars(la).items() if k != "prior_r"}
                == {k: v for k, v in vars(lb).items() if k != "prior_r"})


class TestTrainGroup:
    def test_members_equal_their_solo_runs(self):
        data = small_data(seed=2)
        hps = [small_hp(seed=2, alpha=1.0, beta=0.0, lambda_=1.0),
               small_hp(seed=2, alpha=0.0, beta=2.0, lambda_=0.5),
               small_hp(seed=2, alpha=2.0, beta=5.0, lambda_=0.0)]
        records = train_group(data, hps)
        assert [r.status for r in records] == ["ok"] * 3
        for hp, record in zip(hps, records):
            assert_same_record(record, train_one(data, hp))

    @pytest.mark.filterwarnings("error::RuntimeWarning")   # a detector speaks, not numpy
    def test_a_diverging_member_fails_alone(self):
        data = small_data()
        hps = [small_hp(beta=0.0), small_hp(lr0=1e200), small_hp(beta=2.0)]
        records = train_group(data, hps)
        assert [r.status for r in records] == ["ok", "failed", "ok"]
        assert re.search(r" at epoch \d+, batch \d+$", records[1].error)
        for hp, record in zip(hps, records):
            assert_same_record(record, train_one(data, hp))

    @pytest.mark.parametrize("field, value", [
        ("seed", 1), ("epochs", 3), ("batch_size", 32), ("noise_sigma", 0.2), ("drop_prob", 0.2),
    ])
    def test_members_must_share_the_batch_and_view_settings(self, field, value):
        assert field in GROUP_SETTINGS
        hps = [small_hp(), small_hp(beta=0.0, **{field: value})]
        with pytest.raises(ValidationError, match=rf"^the runs of a group must share {field}, "):
            train_group(small_data(), hps)

    def test_an_empty_group_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^a training group needs at least one run$"):
            train_group(small_data(), [])

    def test_an_epoch_that_steps_no_batch_fails_every_member(self):
        data = small_data()
        hps = [small_hp(batch_size=1, epochs=2, beta=beta) for beta in (0.0, 2.0)]
        records = train_group(data, hps)
        for hp, record in zip(hps, records):
            assert record.status == "failed"
            assert record.epoch_logs == []
            assert_same_record(record, train_one(data, hp))


def train_on(helper, data, hps):
    """``train_group`` in a process that looks like one with 2 CPUs and one
    thread, which forks the helper, if ``helper``; else like one with 1 CPU,
    which trains in one process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ltgcd.harness._cpus", lambda: 2 if helper else 1)
        patch.setattr("ltgcd.harness._threads", lambda: 1)
        return train_group(data, hps)


def assert_no_child_left():
    # every process the group started has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDrawAhead:
    """The helper changes where the views' random numbers are drawn,
    never which: both paths give the same records, and no process outlives
    the group."""

    def test_a_split_with_skipped_batches_and_a_short_last_batch(self):
        # few unlabeled rows, so some batches of 9 are skipped; 240 % 9 = 6
        data = small_data(labeled_fraction=0.9)
        hp = small_hp(batch_size=9)
        stepped = [batch for epoch in _stepped_batches(data, hp) for batch in epoch]
        assert data.n % 9 == 6
        assert len(stepped) < hp.epochs * -(-data.n // 9)
        assert 6 in {len(batch) for batch in stepped}
        ahead = train_on(True, data, [hp])
        assert_same_record(ahead[0], train_on(False, data, [hp])[0])
        assert ahead[0].status == "ok"

    @pytest.mark.parametrize("hps, status", [
        ([small_hp(beta=0.0), small_hp(beta=2.0, lambda_=0.5)], "ok"),
        ([small_hp(lr0=1e100), small_hp(lr0=1e100, beta=0.0)], "failed"),
        ([small_hp(batch_size=1, epochs=2)], "failed"),
        ([small_hp(drop_prob=0.0)], "ok"),
    ], ids=["two-runs", "all-diverge", "no-batch-steps", "no-dropout"])
    def test_both_paths_give_the_same_records(self, hps, status):
        data = small_data(seed=1)
        ahead = train_on(True, data, hps)
        assert_no_child_left()
        in_process = train_on(False, data, hps)
        assert [r.status for r in ahead] == [status] * len(hps)
        for a, b in zip(ahead, in_process):
            assert_same_record(a, b)

    def test_the_ring_is_unmapped_before_evaluation(self, monkeypatch):
        def shared_maps():   # a shared anonymous mapping shows as /dev/zero
            with open("/proc/self/maps") as maps:
                return sum("/dev/zero" in line for line in maps)

        def evaluate_counting_maps(*args):
            seen.append(shared_maps())
            return evaluate(*args)
        seen, before = [], shared_maps()
        monkeypatch.setattr("ltgcd.harness.evaluate", evaluate_counting_maps)
        train_on(True, small_data(), [small_hp()])
        assert seen == [before]

    @pytest.mark.parametrize("field, held", [(0, "batch 1 of 64"), (1, "batch 0 of 65")],
                             ids=["number", "rows"])
    def test_a_slot_that_holds_another_batch_is_a_runtime_error(self, monkeypatch, field, held):
        # the helper alone misnumbers every slot it fills: it adds 1 to the
        # slot's batch number or row count before it sends the full token
        draw, write = _DrawAhead._draw, os.write

        def draw_misnumbering(ring, data, shared, free_r, full_w, done_w):
            def write_misnumbered(fd, token):
                if fd == full_w:
                    ring.shared["batch"][token[0], field] += 1
                return write(fd, token)
            monkeypatch.setattr(os, "write", write_misnumbered)   # the helper never returns
            draw(ring, data, shared, free_r, full_w, done_w)
        monkeypatch.setattr(_DrawAhead, "_draw", draw_misnumbering)
        with pytest.raises(RuntimeError, match=f"wants batch 0 of 64 rows; the ring slot holds "
                                               f"{held} rows$"):
            train_on(True, small_data(), [small_hp()])
        assert_no_child_left()

    def test_a_step_that_raises_leaves_no_process(self, monkeypatch):
        def broken_loss(*args, **kwargs):
            raise ValidationError("broken invariant")
        monkeypatch.setattr("ltgcd.harness.overall_loss", broken_loss)
        with pytest.raises(ValidationError, match="broken invariant"):
            train_on(True, small_data(), [small_hp()])
        assert_no_child_left()

    def test_a_failed_fork_draws_in_process(self, monkeypatch):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        data, hp = small_data(), small_hp()
        open_fds = sorted(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", no_fork)
        (record,) = train_on(True, data, [hp])
        assert sorted(os.listdir("/proc/self/fd")) == open_fds   # both pipes closed
        assert_same_record(record, train_on(False, data, [hp])[0])

    def test_a_draw_process_that_dies_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(_DrawAhead, "_draw", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="the helper process ended before"):
            train_on(True, small_data(), [small_hp()])
        assert_no_child_left()

    def test_a_draw_process_killed_mid_run_is_a_runtime_error(self, monkeypatch):
        take = _DrawAhead.take

        def take_then_kill(ring, rows):
            draws = take(ring, rows)
            os.kill(ring.pid, signal.SIGKILL)
            return draws
        monkeypatch.setattr(_DrawAhead, "take", take_then_kill)
        with pytest.raises(RuntimeError, match="the helper process ended before"):
            train_on(True, small_data(), [small_hp()])
        assert_no_child_left()

    def test_a_helper_that_dies_mid_job_is_a_runtime_error(self, monkeypatch):
        claim = _DrawAhead._claim
        # the helper claims every job, and its sup_con ends it
        monkeypatch.setattr(_DrawAhead, "_claim", lambda ring: ring.pid == 0 and claim(ring))
        monkeypatch.setattr("ltgcd.harness.sup_con", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="the helper process ended before"):
            train_on(True, small_data(), [small_hp()])
        assert_no_child_left()

    def test_a_killed_trainer_takes_its_draw_process_with_it(self):
        # the helper inherits the write end of a pipe, so the pipe
        # reads EOF only once both the trainer and its helper are gone
        script = textwrap.dedent("""
            import os
            from ltgcd import harness
            from ltgcd.config import Hyperparams, SplitSpec
            from ltgcd.data import generate_mixture
            from ltgcd.rng import derive_stream
            spec = SplitSpec(num_classes=6, num_known=3, samples_per_known=60, rho=3.0, dim=16)
            data = generate_mixture(spec, 5.0, derive_stream(0, "split"))
            fork = os.fork
            def announce():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid
            os.fork = announce
            harness._cpus, harness._threads = lambda: 2, lambda: 1
            harness.train_group(data, [Hyperparams(epochs=100000, batch_size=64)])
        """)
        read_end, write_end = os.pipe()
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        trainer = subprocess.Popen([sys.executable, "-c", script], env=env,
                                   stdout=subprocess.PIPE, pass_fds=(write_end,))
        os.close(write_end)
        try:
            assert select.select([trainer.stdout], [], [], 60)[0], "no helper started"
            assert int(trainer.stdout.readline()) > 0
            assert trainer.poll() is None   # still training
            trainer.kill()
            trainer.wait(timeout=10)
            assert select.select([read_end], [], [], 5)[0], "the helper outlived its trainer"
            assert os.read(read_end, 1) == b""
        finally:
            os.close(read_end)
            trainer.kill()
            trainer.wait(timeout=10)
            trainer.stdout.close()


def agreement_case(rng):
    """A random small split and a group of 1-3 runs on it. The split's
    labeled rows are one row, several rows of one class, rows each of its
    own class, or a random mix, so a batch's labeled views are 0, 2 of one
    instance, all of one class, or each instance its own class."""
    n, dim, num_classes = (int(rng.integers(8, 33)), int(rng.integers(2, 7)),
                           int(rng.integers(2, 6)))
    labels = rng.integers(0, num_classes, n)
    kind = rng.choice(["one", "one class", "own class", "mix"])
    n_labeled = 1 if kind == "one" else int(rng.integers(2, min(num_classes, n - 6) + 1))
    labeled = rng.permutation(n)[:n_labeled]
    if kind == "one class":
        labels[labeled] = 0
    elif kind == "own class":
        labels[labeled] = np.arange(n_labeled)
    is_labeled = np.zeros(n, dtype=bool)
    is_labeled[labeled] = True
    data = EmbeddingDataset(points=rng.standard_normal((n, dim)), labels=labels,
                            is_labeled=is_labeled, num_classes=num_classes)
    shared = dict(seed=int(rng.integers(0, 1000)), epochs=int(rng.integers(1, 4)),
                  batch_size=int(rng.integers(1, n + 1)),
                  drop_prob=float(rng.choice([0.0, 0.2])))
    hps = [Hyperparams(**shared, alpha=float(rng.choice([0.0, 1.0, 2.0])),
                       beta=float(rng.choice([0.0, 2.0, 5.0])),
                       lambda_=float(rng.choice([0.0, 0.5, 1.0])))
           for _ in range(int(rng.integers(1, 4)))]
    if rng.random() < 0.3:
        hps[int(rng.integers(len(hps)))] = replace(hps[0], lr0=1e100)
    return data, hps


def test_draw_ahead_agrees(monkeypatch):
    # each case forces where the steps' sup_con runs: the helper claims every
    # job, the training loop takes every job back, or the two race
    claim, offload = _DrawAhead._claim, _DrawAhead.offload
    routes = []

    def offload_noting_route(ring, *args):
        collect = offload(ring, *args)

        def collect_noting_route():
            result = collect()
            routes.append("loop" if result is None else "helper")
            return result
        return collect_noting_route
    monkeypatch.setattr(_DrawAhead, "offload", offload_noting_route)
    rng = derive_stream(0, "draw-ahead-agrees")
    for case in range(36):
        data, hps = agreement_case(rng)
        route = ["helper", "loop", "either"][case % 3]
        if route != "either":
            monkeypatch.setattr(_DrawAhead, "_claim", lambda ring, in_helper=route == "helper":
                                claim(ring) if (ring.pid == 0) == in_helper else False)
        routes.clear()
        ahead = train_on(True, data, hps)
        assert_no_child_left()
        monkeypatch.setattr(_DrawAhead, "_claim", claim)
        in_process = train_on(False, data, hps)
        assert route == "either" or set(routes) <= {route}, (case, routes)
        for a, b in zip(ahead, in_process):
            assert_same_record(a, b)


class TestHelperChoice:
    """The helper is forked only by a process that may use 2 CPUs, runs one
    OS thread and was not started by a pool."""

    @pytest.mark.parametrize("cpus, threads, parent, forks", [
        (2, 1, None, True), (1, 1, None, False), (2, 2, None, False), (2, None, None, False),
        (2, 1, "a pool", False),
    ], ids=["2-1-True", "1-1-False", "2-2-False", "2-None-False", "pool-worker"])
    def test_the_helper_needs_two_cpus_and_one_thread(self, monkeypatch, cpus, threads, parent,
                                                      forks):
        forked = []
        fork = os.fork

        def noting_fork():
            forked.append(True)
            return fork()
        monkeypatch.setattr("ltgcd.harness._cpus", lambda: cpus)
        monkeypatch.setattr("ltgcd.harness._threads", lambda: threads)
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: parent)
        monkeypatch.setattr(os, "fork", noting_fork)
        data, hp = small_data(), small_hp(epochs=1)
        assert_same_record(train_group(data, [hp])[0], train_on(False, data, [hp])[0])
        assert forked == [True] * forks

    def test_a_sweep_forks_the_helper_only_in_its_own_process(self, tmp_path, monkeypatch):
        # the pool forks its workers, so they inherit every patch made here
        log = tmp_path / "helpers"

        class NotingHelper(_DrawAhead):
            def __init__(self, *args):
                with open(log, "a") as out:
                    out.write(f"{os.getpid()}\n")
                super().__init__(*args)
        monkeypatch.setattr("ltgcd.harness._DrawAhead", NotingHelper)
        monkeypatch.setattr("ltgcd.harness._threads", lambda: 1)
        results = set()
        for cpus, workers, helpers in [(2, 1, 2), (2, 2, 0), (1, 1, 0)]:
            monkeypatch.setattr("ltgcd.harness._cpus", lambda cpus=cpus: cpus)
            log.write_text("")
            out = sweep(small_plan(tmp_path / f"{cpus}-{workers}", workers=workers))
            assert_no_child_left()
            # one helper per (rho, seed) group of the plan's two
            assert log.read_text().split() == [str(os.getpid())] * helpers, (cpus, workers)
            results.add(out["results"].read_bytes())
        assert len(results) == 1

    def test_threads_reads_this_process(self, monkeypatch):
        assert _threads() == len(os.listdir("/proc/self/task"))

        def unreadable(*args, **kwargs):
            raise PermissionError("no /proc")
        monkeypatch.setattr(os, "listdir", unreadable)
        assert _threads() is None

    @pytest.mark.parametrize("files, cap", [
        ({}, None),
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu.max": "150000 100000\n"}, 1),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "400000 100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu.max": "garbage\n", "cpu/cpu.cfs_quota_us": "100000\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, 1),
    ], ids=["none", "v2-max", "v2-1.5", "v2-0.5", "v2-4", "v1-unlimited", "v1-1", "v1-3",
            "v2-bad-v1-1"])
    def test_cpus_counts_a_cgroup_quota(self, tmp_path, monkeypatch, files, cap):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert _cpus(tmp_path) == (3 if cap is None else min(3, cap))


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


def run_key(cell):
    return cell.split.rho, cell.hp.seed


class TestSweepChunks:
    @pytest.mark.parametrize("lr0", [0.02, 1e100], ids=["ok", "diverged"])
    def test_outputs_are_byte_identical_at_any_worker_count(self, tmp_path, lr0):
        outputs = []
        for workers in (1, 2, 3, 8):
            plan = small_plan(tmp_path / f"w{workers}", workers=workers, betas=(0.0, 1.0, 2.0),
                              hp=Hyperparams(epochs=2, batch_size=64, seed=0, lr0=lr0))
            sweep(plan)
            outputs.append({p.name: p.read_bytes() for p in sorted(plan.out_dir.iterdir())})
        assert ("failures.csv" in outputs[0]) == (lr0 == 1e100)
        assert {"results.csv", "summary.csv"} <= set(outputs[0])
        assert all(out == outputs[0] for out in outputs[1:])

    def test_chunks_cut_rho_seed_runs_in_plan_order(self, tmp_path):
        cells = small_plan(tmp_path, rhos=(1.0, 3.0), betas=(0.0, 1.0, 2.0)).jobs()
        for workers in range(1, len(cells) + 3):
            chunks = _chunks(cells, workers)
            assert len(chunks) == min(workers, len(cells))
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) - min(sizes) <= 1
            flat = [cell for chunk in chunks for cell in chunk]
            assert sorted(cell.run_id for cell in flat) == [cell.run_id for cell in cells]
            # each (rho, seed) run is one contiguous stretch, in plan order
            keys = [run_key(cell) for cell in flat]
            assert keys == sorted(keys)
            for k in set(keys):
                ids = [cell.run_id for cell in flat if run_key(cell) == k]
                assert ids == [cell.run_id for cell in cells if run_key(cell) == k]


class TestTrainLog:
    def test_one_row_per_epoch_with_prior_columns(self, tmp_path):
        record = train_one(small_data(), small_hp(epochs=3))
        path = write_train_log(tmp_path / "log.csv", record)
        rows = read_csv(path)
        assert rows[0][:7] == ["epoch", "l_ins", "l_sup", "h_prior",
                               "h_uniform", "l_overall", "lr"]
        assert rows[0][7:] == [f"r_{c}" for c in range(6)]
        assert len(rows) == 1 + 3
