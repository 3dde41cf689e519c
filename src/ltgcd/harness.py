"""Experiment runner: training runs, grid sweeps, CSV and SVG output.

A run owns its model, and its seed names all of its random streams. Runs
that share a seed and the batch and augmentation settings draw the same
batches and views, so ``train_group`` trains them in one loop that draws each
batch's views once; ``train_one`` is a group of one. A sweep trains each
``(rho, seed)``'s cells as such a group, optionally in worker processes, and
merges results in plan order, which keeps every output file byte-stable for
a fixed plan.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import Hyperparams, SplitSpec, check_setting, file_key
from .data import EmbeddingDataset, format_cell, generate_mixture, make_views, write_csv
from .errors import TrainingDiverged, ValidationError
from .evaluation import METRIC_NAMES, MetricsReport, evaluate
from .losses import overall_loss
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
# the epoch-mean losses: fields of LossBreakdown and EpochLog, train_log.csv columns
LOSS_NAMES = ("l_ins", "l_sup", "h_prior", "h_uniform", "l_overall")
# the settings that fix a run's batch order and views; a train_group's runs share them
GROUP_SETTINGS = ("seed", "epochs", "batch_size", "noise_sigma", "drop_prob")


@dataclass
class EpochLog:
    epoch: int
    l_ins: float
    l_sup: float
    h_prior: float
    h_uniform: float
    l_overall: float
    lr: float
    prior_r: np.ndarray


@dataclass
class RunRecord:
    config: dict
    epoch_logs: list[EpochLog]
    metrics: MetricsReport | None
    status: str = "ok"
    error: str | None = None
    head: ProjectionHead | None = None
    protos: Prototypes | None = None


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


def _batch_iter(perm: np.ndarray, batch_size: int):
    for start in range(0, len(perm), batch_size):
        yield perm[start:start + batch_size]


class _Run:
    """One member of a ``train_group``: its float64 master head and momentum,
    prototypes, prior, the epoch's learning rate and loss sums, its logs, and
    its error once it diverges."""

    def __init__(self, data: EmbeddingDataset, hp: Hyperparams) -> None:
        self.hp = hp
        self.head = init_head(data.dim, DEFAULT_HIDDEN, DEFAULT_OUT_DIM,
                              derive_stream(hp.seed, "init"))
        self.velocity = {name: np.zeros_like(arr) for name, arr in self.head.params().items()}
        self.r = np.full(data.num_classes, 1.0 / data.num_classes)
        self.protos: Prototypes | None = None
        self.logs: list[EpochLog] = []
        self.lr = 0.0
        self.sums = np.zeros(len(LOSS_NAMES))
        self.error: str | None = None

    def step(self, X: np.ndarray, labeled: np.ndarray, labels: np.ndarray) -> None:
        """Forward, loss, backward and SGD step on one batch's float32 views."""
        step_head = self.head.astype(np.float32)
        Z, acts = forward_cached(step_head, X)
        breakdown = overall_loss(Z, labeled, labels, self.protos, self.r, self.hp)
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
        if self.error is not None:
            return RunRecord(config=config_echo, epoch_logs=self.logs, metrics=None,
                             status="failed", error=self.error, head=self.head,
                             protos=self.protos)
        return RunRecord(config=config_echo, epoch_logs=self.logs,
                         metrics=evaluate(self.head, data, self.hp.seed),
                         head=self.head, protos=self.protos)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_group(data: EmbeddingDataset, hps: list[Hyperparams]) -> list[RunRecord]:
    """Train one run per ``hps`` entry on one dataset, in lockstep, and
    evaluate each final snapshot; the records come back in ``hps`` order.

    The runs must share every setting of ``GROUP_SETTINGS``, so they share
    the batch order and the views: each stepped batch's views are drawn once
    and every live run steps on them. Everything else is the run's own: its
    float64 master head, momentum, prototypes, prior, losses and logs. A run
    that a group trains is bit for bit the run that ``train_one`` trains.

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
    epoch 0 the norm check names a dataset row, and an epoch that steps no
    batch names itself, so neither gets a suffix.
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
    batch_rng = derive_stream(shared.seed, "batch")
    aug_rng = derive_stream(shared.seed, "aug")
    runs = [_Run(data, hp) for hp in hps]
    points32 = data.points.astype(np.float32)
    for run in runs:
        try:
            feats = forward(run.head, data.points)
            run.protos = init_prototypes(feats, data.labels, data.is_labeled, data.num_classes,
                                         derive_stream(run.hp.seed, "proto-seed"))
        except TrainingDiverged as exc:
            run.error = str(exc)

    for epoch in range(shared.epochs):
        live = [run for run in runs if run.error is None]
        if not live:
            break
        for run in live:
            run.lr = learning_rate(run.hp.lr0, epoch, run.hp.epochs)
            run.sums = np.zeros(len(LOSS_NAMES))
        n_batches = 0
        for batch in _batch_iter(batch_rng.permutation(data.n), shared.batch_size):
            if int((~data.is_labeled[batch]).sum()) < 2:
                continue
            X = make_views(data, batch, shared.noise_sigma, shared.drop_prob,
                           aug_rng).astype(np.float32)
            labeled, labels = data.is_labeled[batch], data.labels[batch]
            for run in live:
                try:
                    run.step(X, labeled, labels)
                except TrainingDiverged as exc:
                    run.error = f"{exc} at epoch {epoch}, batch {n_batches}"
            live = [run for run in live if run.error is None]
            n_batches += 1
            if not live:
                break
        if n_batches == 0:
            for run in live:
                run.error = (f"epoch {epoch} stepped no batch: with batch_size="
                             f"{shared.batch_size} no batch holds the 2 unlabeled rows a "
                             "step needs")
            break
        for run in live:
            try:
                run.end_epoch(data, points32, epoch, n_batches)
            except TrainingDiverged as exc:
                run.error = f"{exc} at the end of epoch {epoch}"
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
    ``train_group``. A failed run becomes a non-ok status so the sweep
    continues. The plan validated every cell, so anything raised here is a
    bug and propagates."""
    rows = []
    for (_, seed), group in itertools.groupby(cells, key=lambda c: (c.split.rho, c.hp.seed)):
        group = list(group)
        data = generate_mixture(group[0].split, plan.sep, derive_stream(seed, "split"))
        for cell, record in zip(group, train_group(data, [cell.hp for cell in group])):
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
    continues.

    The cells, in stable ``(rho, seed)`` order, are cut into ``min(workers,
    cells)`` contiguous chunks of near-equal size, and the cells of one chunk
    that share ``(rho, seed)`` train as one ``train_group``, which draws their
    batches' views once. One chunk runs in this process; more run on that
    many worker processes, one chunk each, so a chunk whose cells fail early
    leaves its worker idle. Rows keep plan order either way, and every output
    byte is the same at any ``workers``."""
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = plan.jobs()
    chunks = _chunks(cells, plan.workers)
    if len(chunks) == 1:
        done = [_run_chunk(plan, chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            done = list(pool.map(_run_chunk, itertools.repeat(plan), chunks))
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
