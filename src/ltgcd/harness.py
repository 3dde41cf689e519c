"""Experiment runner: training runs, grid sweeps, CSV and SVG output.

A run owns its model, and its seed names all of its random streams. Runs that
share a seed and the batch and augmentation settings draw the same batches and
views, so ``train_group`` trains them in one loop that draws each batch's
views once; ``train_one`` is a group of one. Where a second CPU would
otherwise idle, in a process of one thread that no pool started, a forked
helper process is the step's second core: it draws each batch's augmentation
noise one batch ahead of the loop, into a shared ring that the loop's views
are made from, and, when it is idle, runs a step's supervised contrast while
the loop runs the rest of the objective. A sweep trains each ``(rho, seed)``'s
cells as such a group, in this process or in worker processes, and merges
results in plan order, so a fixed plan writes the same bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import multiprocessing
import os
import select
import signal
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import Hyperparams, SplitSpec, check_setting, file_key
from .data import (EmbeddingDataset, draw_views, format_cell, generate_mixture, make_views,
                   write_csv)
from .errors import TrainingDiverged, ValidationError
from .evaluation import METRIC_NAMES, MetricsReport, evaluate
from .losses import Losses, overall_loss, sup_con
from .model import (
    ProjectionHead,
    Prototypes,
    backward,
    forward,
    forward_cached,
    init_head,
    init_prototypes,
    learning_rate,
    predict_probs,
    sgd_step,
    update_prototypes,
)
from .prior import ema_update, hard_histogram
from .rng import derive_stream

DEFAULT_SEP = 5.0
DEFAULT_HIDDEN = 64
DEFAULT_OUT_DIM = 32
PROTOTYPE_EMA = 0.9

RESULTS_HEADER = ["run_id", "seed", "rho", "alpha", "beta", "lambda", *METRIC_NAMES]
FAILURES_HEADER = ["run_id", "seed", "rho", "alpha", "beta", "status", "error"]
METRICS_HEADER = ["seed", "rho", "alpha", "beta", *METRIC_NAMES]
SUMMARY_HEADER = ["rho", "alpha", "beta", "lambda", "metric", "mean", "std", "n"]
LOSS_NAMES = tuple(f.name for f in fields(Losses))
# the settings that fix a run's batch order and views; a train_group's runs share them
GROUP_SETTINGS = ("seed", "epochs", "batch_size", "noise_sigma", "drop_prob")


@dataclass(frozen=True)
class EpochLog(Losses):
    epoch: int
    lr: float
    prior_r: np.ndarray


@dataclass
class RunRecord:
    config: dict
    epoch_logs: list[EpochLog]
    metrics: MetricsReport | None
    error: str | None
    head: ProjectionHead
    protos: Prototypes | None

    @property
    def status(self) -> str:
        return "ok" if self.error is None else "failed"


class SweepCell(NamedTuple):
    run_id: str
    hp: Hyperparams
    split: SplitSpec


@dataclass(frozen=True)
class ExperimentPlan:
    hp: Hyperparams
    split: SplitSpec
    rhos: tuple
    alphas: tuple
    betas: tuple
    seeds: tuple
    out_dir: Path
    sep: float = DEFAULT_SEP
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("rhos", "alphas", "betas", "seeds"):
            values = getattr(self, name)
            if not len(values):
                raise ValidationError(f"plan field {name} must be a non-empty list")
            if len(set(values)) != len(values):
                raise ValidationError(f"plan field {name} repeats a value: {list(values)}")
        check_setting("workers", self.workers)
        check_setting("sep", self.sep)
        self.jobs()   # builds, and so validates, every cell before any run

    def jobs(self) -> list[SweepCell]:
        """Cross product in plan order: rho, then alpha, then beta, then seed."""
        grid = itertools.product(self.rhos, self.alphas, self.betas, self.seeds)
        return [
            SweepCell(
                run_id=f"r{idx:04d}",
                hp=replace(self.hp, alpha=float(alpha), beta=float(beta), seed=int(seed)),
                split=replace(self.split, rho=float(rho)),
            )
            for idx, (rho, alpha, beta, seed) in enumerate(grid)
        ]


class _Run:
    """One member of a ``train_group``: its float64 master head (a copy of the
    group's starting head), momentum, prototypes (the group's starting ones
    until the first refresh), prior, the epoch's learning rate and loss sums,
    its logs, and its error once it diverges."""

    def __init__(self, hp: Hyperparams, head: ProjectionHead, protos: Prototypes | None,
                 error: str | None, num_classes: int) -> None:
        self.hp = hp
        self.head = head.astype(np.float64)   # a copy: sgd_step updates it in place
        self.velocity = {name: np.zeros_like(arr) for name, arr in self.head.params().items()}
        self.r = np.full(num_classes, 1.0 / num_classes)
        self.protos = protos
        self.logs: list[EpochLog] = []
        self.error = error

    def step(self, X: np.ndarray, labeled: np.ndarray, labels: np.ndarray, offload=None) -> None:
        """Forward, loss, backward and SGD step on one batch's float32 views;
        ``offload`` is ``overall_loss``'s hook for ``sup_con``."""
        step_head = self.head.astype(np.float32)
        Z, acts = forward_cached(step_head, X)
        breakdown = overall_loss(Z, labeled, labels, self.protos, self.r, self.hp, offload)
        if not math.isfinite(breakdown.l_overall):
            raise TrainingDiverged("non-finite loss")
        grads = backward(step_head, X, breakdown.grad_Z, acts)
        sgd_step(self.head, grads, self.velocity, self.lr, self.hp)
        self.sums += [getattr(breakdown, name) for name in LOSS_NAMES]

    def end_epoch(self, data: EmbeddingDataset, points32: np.ndarray, epoch: int,
                  n_batches: int) -> None:
        """Refresh the prior from the unlabeled hard histogram and the
        prototypes by EMA, then log the epoch."""
        hp = self.hp
        feats = forward(self.head.astype(np.float32), points32)
        assignments = np.argmax(predict_probs(feats, self.protos, hp.tau_p), axis=1)
        self.r = ema_update(
            self.r, hard_histogram(assignments[data.unlabeled_indices], data.num_classes), hp.mu
        )
        self.protos = update_prototypes(
            feats, assignments, data.labels, data.is_labeled, self.protos, PROTOTYPE_EMA
        )
        means = dict(zip(LOSS_NAMES, (self.sums / n_batches).tolist()))
        self.logs.append(EpochLog(epoch=epoch, **means, lr=self.lr, prior_r=self.r))

    def record(self, data: EmbeddingDataset) -> RunRecord:
        """The run's record; a run that did not diverge is evaluated here."""
        config_echo = {
            **{file_key(k): v for k, v in asdict(self.hp).items()},
            "n": data.n,
            "num_classes": data.num_classes,
            "num_known": len(data.known_classes),
            "dim": data.dim,
            "hidden": DEFAULT_HIDDEN,
            "out_dim": DEFAULT_OUT_DIM,
        }
        metrics = evaluate(self.head, data, self.hp.seed) if self.error is None else None
        return RunRecord(config=config_echo, epoch_logs=self.logs, metrics=metrics,
                         error=self.error, head=self.head, protos=self.protos)


def _cpus(cgroup: Path = Path("/sys/fs/cgroup")) -> int:
    """The whole CPUs this process may use: its affinity count, capped by
    the CPU quota of the cgroup mounted at ``cgroup`` (v2 ``cpu.max``, else
    v1 ``cpu/cpu.cfs_quota_us`` over ``cpu/cpu.cfs_period_us``; "max" or -1
    is no quota), and at least 1. 1 where the OS cannot say, which keeps
    training in one process."""
    count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for names in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            quota, period = " ".join((cgroup / name).read_text() for name in names).split()
            if quota not in ("max", "-1"):
                count = min(count, max(1, int(quota) // int(period)))
            break
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return count


def _threads() -> int | None:
    """The OS threads of this process, from ``/proc/self/task``; None where
    it cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _stepped_batches(data: EmbeddingDataset, shared: Hyperparams):
    """Per epoch, the list of batches that step, in order: the seed's
    ``batch`` shuffle cut into ``batch_size`` slices, less each slice with
    fewer than the 2 unlabeled rows a step needs. The training loop and the
    helper both walk it, so they cannot disagree on the batches."""
    batch_rng = derive_stream(shared.seed, "batch")
    for _ in range(shared.epochs):
        perm = batch_rng.permutation(data.n)
        slices = (perm[start:start + shared.batch_size]
                  for start in range(0, data.n, shared.batch_size))
        yield [batch for batch in slices if int((~data.is_labeled[batch]).sum()) >= 2]


class _DrawAhead:
    """A forked helper process, the training step's second core: it draws
    each stepped batch's augmentation noise one batch ahead of the training
    loop, and runs a step's supervised contrast when it is idle.

    The two processes share one record, a structured array over an
    anonymous mmap, sized by the largest batch: per slot of a 2-slot ring,
    ``batch`` holds the number of the stepped batch in it (counted over all
    epochs) and its row count, and ``draws`` its ``(2, 2, rows, dim)``
    float64 ``draw_views`` draws; ``job`` holds tau, the row count and
    ``sup_con``'s value, ``job_labels`` the labeled view rows' labels, and
    ``job_rows`` those float32 rows and their gradient.

    The helper runs one-byte commands in the order they come on its ``cmd``
    pipe. A slot number is a free slot: it calls ``draw_views`` on its own
    ``aug`` stream into it for the next batch of ``_stepped_batches``,
    writes the slot's ``batch`` row and sends the slot number back on a
    ``full`` pipe. ``take`` returns the next full slot's draws, and raises
    unless it holds the batch the loop wants; the slot the loop held goes
    back by ``release``, so each slot is refilled while the loop steps on
    the other.

    ``offload`` is ``overall_loss``'s hook for ``sup_con``. If the helper is
    idle, the next batch's ``full`` token already waiting, it copies the
    labeled view rows, their labels and tau into the record and sends
    ``JOB`` before it releases the held slot, so the job runs before the
    refill; the helper answers with the result in the record and a token on
    a ``done`` pipe. Otherwise the loop runs the job. Either way it is the
    same function on the same float32 inputs, so the bits are the same.

    The helper exits at EOF of ``cmd``, so it ends with a killed trainer;
    its death reads as EOF of ``full`` or ``done``, a ``RuntimeError``.
    ``close``, also run if the start fails after the fork, kills and reaps
    it and drops the record."""

    SLOTS = 2
    JOB = bytes([SLOTS])   # the one command byte that is no slot number

    def __init__(self, data: EmbeddingDataset, shared: Hyperparams) -> None:
        rows = min(shared.batch_size, data.n)
        layout = np.dtype([("batch", np.int64, (self.SLOTS, 2)),
                           ("draws", np.float64, (self.SLOTS, 2, 2, rows, data.dim)),
                           ("job", np.float64, 3),
                           ("job_labels", np.int64, 2 * rows),
                           ("job_rows", np.float32, (2, 2 * rows, DEFAULT_OUT_DIM))])
        self.shared = np.ndarray((), layout, mmap.mmap(-1, layout.itemsize))
        self.taken = 0   # the stepped batches taken so far
        self.held = None
        fds: list[int] = []
        try:
            for _ in range(3):
                fds += os.pipe()
            # the free slots are queued before the fork, so a helper that dies
            # at once is met by take, never by a write here
            os.write(fds[1], bytes(range(self.SLOTS)))
            self.pid = os.fork()
        except OSError:   # no process or descriptor to spare: the caller draws in-process
            for fd in fds:
                os.close(fd)
            raise
        cmd_r, self.cmd_w, self.full_r, full_w, self.done_r, done_w = fds
        if self.pid == 0:   # the helper, which never returns into its caller
            code = 0
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)   # ^C is for the trainer to answer
                for fd in (self.cmd_w, self.full_r, self.done_r):
                    os.close(fd)
                self._draw(data, shared, cmd_r, full_w, done_w)
            except BrokenPipeError:   # the trainer is gone
                pass
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
                code = 1
            finally:
                os._exit(code)
        try:
            for fd in (cmd_r, full_w, done_w):
                os.close(fd)
        except BaseException:   # a ^C here: no helper outlives its start
            for fd in (cmd_r, full_w, done_w):   # one thread: no closed number is reused yet
                with contextlib.suppress(OSError):
                    os.close(fd)
            self.close()
            raise

    def _draw(self, data: EmbeddingDataset, shared: Hyperparams, cmd_r: int,
              full_w: int, done_w: int) -> None:
        """The helper: run each command in the order it comes, a job or the
        fill of a free slot with the next batch's draws (none once the
        schedule ends), until EOF shows that the trainer is gone."""
        aug_rng = derive_stream(shared.seed, "aug")
        batches = enumerate(itertools.chain.from_iterable(_stepped_batches(data, shared)))
        job, job_rows = self.shared["job"], self.shared["job_rows"]
        while token := os.read(cmd_r, 1):
            if token == self.JOB:
                m = int(job[1])
                job[2], job_rows[1, :m] = sup_con(job_rows[0, :m],
                                                  self.shared["job_labels"][:m], float(job[0]))
                os.write(done_w, token)
                continue
            number, batch = next(batches, (None, None))
            if batch is not None:
                slot = token[0]
                draw_views(aug_rng, self.shared["draws"][slot, :, :, :len(batch)],
                           shared.drop_prob)
                self.shared["batch"][slot] = number, len(batch)
                os.write(full_w, token)

    def take(self, rows: int) -> np.ndarray:
        """Release the slot taken last, if ``offload`` has not, and return
        the draws of the next full one, which must hold the loop's next
        stepped batch, of ``rows`` rows."""
        self.release()
        self.held = self._read(self.full_r)
        wanted, held = (self.taken, rows), tuple(self.shared["batch"][self.held].tolist())
        if held != wanted:
            raise RuntimeError("the training loop wants batch {} of {} rows; the ring slot "
                               "holds batch {} of {} rows".format(*wanted, *held))
        self.taken += 1
        return self.shared["draws"][self.held, :, :, :rows]

    @staticmethod
    def _read(fd: int) -> int:
        """The next token on the helper's pipe ``fd``; EOF means it died."""
        token = os.read(fd, 1)
        if not token:
            raise RuntimeError("the helper process ended before the training loop's last batch")
        return token[0]

    def release(self) -> None:
        """Hand the held slot, if any, back to the helper for a refill."""
        if self.held is not None:
            with contextlib.suppress(BrokenPipeError):   # the next read names a dead helper
                os.write(self.cmd_w, bytes([self.held]))
            self.held = None

    def _idle(self) -> bool:
        """Whether the next batch's ``full`` token (or EOF) already waits."""
        waiting = select.poll()
        waiting.register(self.full_r, select.POLLIN)
        return bool(waiting.poll(0))

    def offload(self, Z_lab: np.ndarray, view_labels: np.ndarray, tau: float):
        """Send ``sup_con(Z_lab, view_labels, tau)`` to the helper if it is
        idle, release the held slot, and return the job's collector, which
        gives the helper's result, its gradient a view of the record; None,
        the job being the loop's, if the helper is busy."""
        if not self._idle():
            self.release()
            return None
        m, job = len(Z_lab), self.shared["job"]
        job[:2] = tau, m
        self.shared["job_labels"][:m] = view_labels
        self.shared["job_rows"][0, :m] = Z_lab
        with contextlib.suppress(BrokenPipeError):   # the next read names a dead helper
            os.write(self.cmd_w, self.JOB)
        self.release()

        def collect():
            self._read(self.done_r)
            return float(job[2]), self.shared["job_rows"][1, :m]
        return collect

    def close(self) -> None:
        """Close the pipes, kill and reap the helper, and drop the record."""
        for fd in (self.cmd_w, self.full_r, self.done_r):
            os.close(fd)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        # unmapped once no view of it is held, so evaluation's arrays do not stack on it
        self.shared = None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_group(data: EmbeddingDataset, hps: list[Hyperparams]) -> list[RunRecord]:
    """Train one run per ``hps`` entry on one dataset, in lockstep, and
    evaluate each final snapshot; the records come back in ``hps`` order.

    The runs must share every setting of ``GROUP_SETTINGS``, so they share
    the batch order and the views: each stepped batch's views are drawn once
    and every live run steps on them. Their shared seed also fixes their
    start, so the starting head and the prototypes seeded from its forward
    are built once for the group. Everything else is the run's own: its
    float64 master head (a copy of the start), momentum, prototypes after the
    first refresh, prior, losses and logs. A run that a group trains is bit
    for bit the run that ``train_one`` trains.

    Per epoch: shuffled batches of (augment, forward, loss, backward, step),
    then, run by run, the prior refresh from the unlabeled hard histogram and
    the prototype EMA update. Each step's forward and backward and the
    refresh's forward run on float32 copies of the head, the views and the
    points; the master head, its momentum and the SGD step stay float64, as
    do the views' random draws, the initial forward that seeds the
    prototypes, the prototypes, the prior and the final ``evaluate``. A
    ``TrainingDiverged`` gives that run alone a ``failed`` record, and the
    loop stops once every run has failed; any other exception propagates.
    numpy's floating-point warnings are off for the whole group: a non-finite
    value is named by the detector that meets it (the row-norm check of
    ``forward_cached``, the loss check, or ``sgd_step``'s gradient check),
    and the record's error appends where the run stopped: ``at epoch E,
    batch B`` for a step, ``at the end of epoch E`` for the refresh. Before
    epoch 0 the norm check names a dataset row and fails every run, and an
    epoch that steps no batch names itself, so neither gets a suffix.

    A forked ``_DrawAhead`` helper draws the views' noise one batch ahead and
    runs a step's ``sup_con`` when it is idle at the step's start, if the
    runs survive their start and this process may use 2 or more CPUs, runs one
    OS thread (BLAS threads beside the helper slow the trainer) and was not
    started by a pool, whose workers share their CPUs. Otherwise, or if it
    cannot be started (a failed pipe, mmap or fork), all runs in this process.
    The helper is killed and reaped on every way out of the loop. Both give the
    same bits; if the helper dies, the group raises ``RuntimeError``.
    """
    if not hps:
        raise ValidationError("a training group needs at least one run")
    for name in GROUP_SETTINGS:
        values = list(dict.fromkeys(getattr(hp, name) for hp in hps))
        if len(values) > 1:
            raise ValidationError(f"the runs of a group must share {name}, got {values}")
    if data.num_classes < 2:
        raise ValidationError(f"need at least 2 classes, got {data.num_classes}")
    n_unlabeled = len(data.unlabeled_indices)
    if len(data.unknown_classes) > n_unlabeled:
        raise ValidationError(f"{len(data.unknown_classes)} unknown classes but only "
                              f"{n_unlabeled} unlabeled rows to seed their prototypes")

    shared = hps[0]
    head = init_head(data.dim, DEFAULT_HIDDEN, DEFAULT_OUT_DIM, derive_stream(shared.seed, "init"))
    protos, error = None, None
    try:
        protos = init_prototypes(forward(head, data.points), data.labels, data.is_labeled,
                                 data.num_classes, derive_stream(shared.seed, "proto-seed"))
    except TrainingDiverged as exc:
        error = str(exc)
    runs = [_Run(hp, head, protos, error, data.num_classes) for hp in hps]
    aug_rng = derive_stream(shared.seed, "aug")
    points32 = data.points.astype(np.float32)
    draws = None
    try:
        if (error is None and multiprocessing.parent_process() is None
                and _cpus() >= 2 and _threads() == 1):
            with contextlib.suppress(OSError):   # no helper: draw in this process
                draws = _DrawAhead(data, shared)
        for epoch, batches in enumerate(_stepped_batches(data, shared)):
            live = [run for run in runs if run.error is None]
            if not live:
                break
            if not batches:
                for run in live:
                    run.error = (f"epoch {epoch} stepped no batch: with batch_size="
                                 f"{shared.batch_size} no batch holds the 2 unlabeled rows a "
                                 "step needs")
                break
            for run in live:
                run.lr = learning_rate(run.hp.lr0, epoch, run.hp.epochs)
                run.sums = np.zeros(len(LOSS_NAMES))
            for b, batch in enumerate(batches):
                X = make_views(data, batch, shared.noise_sigma, shared.drop_prob,
                               draw_views(aug_rng, np.empty((2, 2, len(batch), data.dim)),
                                          shared.drop_prob)
                               if draws is None else draws.take(len(batch))).astype(np.float32)
                labeled, labels = data.is_labeled[batch], data.labels[batch]
                for run in live:
                    try:
                        run.step(X, labeled, labels, None if draws is None else draws.offload)
                    except TrainingDiverged as exc:
                        run.error = f"{exc} at epoch {epoch}, batch {b}"
                live = [run for run in live if run.error is None]
                if not live:
                    break
            for run in live:
                try:
                    run.end_epoch(data, points32, epoch, len(batches))
                except TrainingDiverged as exc:
                    run.error = f"{exc} at the end of epoch {epoch}"
    finally:
        if draws is not None:
            draws.close()
    return [run.record(data) for run in runs]


def train_one(data: EmbeddingDataset, hp: Hyperparams) -> RunRecord:
    """Train and evaluate one run: a ``train_group`` of one."""
    return train_group(data, [hp])[0]


def _chunks(cells: list[SweepCell], workers: int) -> list[list[SweepCell]]:
    """The cells in stable ``(rho, seed)`` order, cut into ``min(workers,
    len(cells))`` contiguous chunks whose sizes differ by at most one."""
    ordered = sorted(cells, key=lambda cell: (cell.split.rho, cell.hp.seed))
    n_chunks = min(workers, len(ordered))
    size, extra = divmod(len(ordered), n_chunks)
    bounds = [i * size + min(i, extra) for i in range(n_chunks + 1)]
    return [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_chunk(plan: ExperimentPlan, cells: list[SweepCell]) -> list[dict]:
    """Sweep cells in ``(rho, seed)`` order: each run of cells that share
    ``(rho, seed)`` regenerates that split once and trains as one
    ``train_group``, which forks no helper in a pool worker. A failed run
    becomes a non-ok status so the sweep continues. The plan validated every
    cell, so anything raised here is a bug and propagates."""
    rows = []
    for (_, seed), group in itertools.groupby(cells, key=lambda c: (c.split.rho, c.hp.seed)):
        group = list(group)
        data = generate_mixture(group[0].split, plan.sep, derive_stream(seed, "split"))
        records = train_group(data, [cell.hp for cell in group])
        for cell, record in zip(group, records):
            rows.append({
                "run_id": cell.run_id,
                "seed": cell.hp.seed,
                "rho": cell.split.rho,
                "alpha": cell.hp.alpha,
                "beta": cell.hp.beta,
                "lambda": cell.hp.lambda_,
                "status": record.status,
                "error": record.error,
                **(record.metrics.accuracies() if record.metrics is not None else {}),
            })
    return rows


def metrics_row(
    report: MetricsReport, rho: float | None, alpha: float | None, beta: float | None
) -> list[str]:
    """One formatted row in the ``METRICS_HEADER`` layout; an echo value of
    None is an empty cell."""
    return [format_cell(v) for v in (report.seed, rho, alpha, beta, *report.accuracies().values())]


def _metric_stats(rows: list[dict]) -> dict[str, tuple[float, float, int]]:
    """Mean, std and count of each metric over the rows where it is present;
    a metric absent from every row gets no entry."""
    stats = {}
    for metric in METRIC_NAMES:
        values = np.asarray([r[metric] for r in rows if r[metric] is not None], dtype=np.float64)
        if len(values):
            stats[metric] = (float(values.mean()), float(values.std()), len(values))
    return stats


def sweep(plan: ExperimentPlan) -> dict[str, Path]:
    """Run the plan cross product and write results.csv, summary.csv, and one
    trend SVG per swept axis. Failed runs land in failures.csv and the sweep
    continues. An earlier sweep's failures.csv or trend SVG that this sweep
    does not write is deleted, so ``out_dir`` describes this sweep alone.

    The cells, in stable ``(rho, seed)`` order, are cut into ``min(workers,
    cells)`` contiguous chunks of near-equal size, and the cells of one chunk
    that share ``(rho, seed)`` train as one ``train_group``, which draws their
    batches' views once. One chunk runs in this process, which may fork a
    helper by ``train_group``'s rule; more run on that many worker processes,
    one chunk each, so a chunk whose cells fail early leaves its worker idle,
    and ^C to this process kills them; a worker's death raises naming the
    runs that did not finish. Rows keep plan order either way, and every
    output byte is the same at any ``workers``."""
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = plan.jobs()
    chunks = _chunks(cells, plan.workers)
    if len(chunks) == 1:
        done = [_run_chunk(plan, chunks[0])]
    else:
        others = set(multiprocessing.active_children())
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_run_chunk, plan, chunk) for chunk in chunks]
            try:   # exception() waits for its future
                lost = [cell.run_id for chunk, future in zip(chunks, futures)
                        if isinstance(future.exception(), BrokenProcessPool) for cell in chunk]
            except KeyboardInterrupt:   # sent to this process alone, it stops the workers too
                for worker in set(multiprocessing.active_children()) - others:
                    worker.kill()
                raise
        if lost:
            raise RuntimeError(f"a sweep worker died; runs {', '.join(lost)} did not finish")
        done = [future.result() for future in futures]
    position = {cell.run_id: i for i, cell in enumerate(cells)}
    rows = sorted((row for chunk in done for row in chunk), key=lambda r: position[r["run_id"]])

    artifacts: dict[str, Path] = {}
    ok_rows = [r for r in rows if r["status"] == "ok"]
    failed = [r for r in rows if r["status"] != "ok"]

    artifacts["results"] = write_csv(
        out_dir / "results.csv", RESULTS_HEADER,
        [[r[k] for k in RESULTS_HEADER] for r in ok_rows],
    )
    if failed:
        artifacts["failures"] = write_csv(
            out_dir / "failures.csv", FAILURES_HEADER,
            [[r[k] for k in FAILURES_HEADER] for r in failed],
        )
    else:
        (out_dir / "failures.csv").unlink(missing_ok=True)

    groups: dict[tuple, list[dict]] = {}   # first-seen order is plan order
    for r in ok_rows:
        groups.setdefault((r["rho"], r["alpha"], r["beta"], r["lambda"]), []).append(r)
    artifacts["summary"] = write_csv(out_dir / "summary.csv", SUMMARY_HEADER, (
        [*key, metric, *stat]
        for key, group in groups.items() for metric, stat in _metric_stats(group).items()
    ))

    from .svg import line_plot
    for axis, values in {"rho": plan.rhos, "alpha": plan.alphas, "beta": plan.betas}.items():
        if len(values) < 2:
            (out_dir / f"sweep_{axis}.svg").unlink(missing_ok=True)
            continue
        xs = sorted(float(v) for v in values)
        stats = [_metric_stats([r for r in ok_rows if r[axis] == x]) for x in xs]
        # each series is named as its legend spells it: All, Known, Un1, Un2
        series = {m.capitalize(): [s[m][0] if m in s else None for s in stats]
                  for m in METRIC_NAMES}
        artifacts[f"svg_{axis}"] = line_plot(
            out_dir / f"sweep_{axis}.svg", xs, series,
            title=f"Accuracy vs {axis}", x_label=axis,
        )

    return artifacts


def write_train_log(path: str | Path, record: RunRecord) -> Path:
    """Per-epoch CSV: loss components, learning rate, prior estimate."""
    num_classes = len(record.epoch_logs[0].prior_r) if record.epoch_logs else 0
    header = ["epoch", *LOSS_NAMES, "lr", *(f"r_{c}" for c in range(num_classes))]
    return write_csv(path, header, (
        [log.epoch, *(getattr(log, name) for name in LOSS_NAMES), log.lr, *log.prior_r.tolist()]
        for log in record.epoch_logs
    ))
