"""Experiment runner: single training runs, grid sweeps, CSV and SVG output.

A run owns its model and all of its named random streams, so runs are
independent jobs; a sweep executes them (optionally in worker processes) and
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_one(data: EmbeddingDataset, hp: Hyperparams) -> RunRecord:
    """Train on one dataset and evaluate the final snapshot.

    Per epoch: shuffled batches of (augment, forward, loss, backward, step),
    then prior refresh from the unlabeled hard histogram and the prototype
    EMA update. A ``TrainingDiverged`` ends the run with a ``failed`` record;
    any other exception propagates. numpy's floating-point warnings are off
    for the whole run: a non-finite value is named by the detector that meets
    it (the row-norm check of ``forward_cached``, the loss check, or
    ``sgd_step``'s gradient check), and the record's error appends where the
    run stopped: ``at epoch E, batch B`` for a step, ``at the end of epoch E``
    for the refresh. Before epoch 0 the norm check names a dataset row, and an
    epoch that steps no batch names itself, so neither gets a suffix.
    """
    if data.num_classes < 2:
        raise ValidationError(f"need at least 2 classes, got {data.num_classes}")
    unlab = data.unlabeled_indices
    if len(data.unknown_classes) > len(unlab):
        raise ValidationError(f"{len(data.unknown_classes)} unknown classes but only "
                              f"{len(unlab)} unlabeled rows to seed their prototypes")
    config_echo = {
        **{file_key(k): v for k, v in asdict(hp).items()},
        "n": data.n,
        "num_classes": data.num_classes,
        "num_known": len(data.known_classes),
        "dim": data.dim,
        "hidden": DEFAULT_HIDDEN,
        "out_dim": DEFAULT_OUT_DIM,
    }

    init_rng = derive_stream(hp.seed, "init")
    batch_rng = derive_stream(hp.seed, "batch")
    aug_rng = derive_stream(hp.seed, "aug")
    proto_rng = derive_stream(hp.seed, "proto-seed")

    head = init_head(data.dim, DEFAULT_HIDDEN, DEFAULT_OUT_DIM, init_rng)
    r = np.full(data.num_classes, 1.0 / data.num_classes)
    velocity = {name: np.zeros_like(arr) for name, arr in head.params().items()}

    logs: list[EpochLog] = []
    protos = None
    where = ""   # appended to a divergence's message
    try:
        feats = forward(head, data.points)
        protos = init_prototypes(feats, data.labels, data.is_labeled, data.num_classes, proto_rng)
        for epoch in range(hp.epochs):
            lr = learning_rate(hp.lr0, epoch, hp.epochs)
            sums = np.zeros(len(LOSS_NAMES))
            n_batches = 0
            for batch in _batch_iter(batch_rng.permutation(data.n), hp.batch_size):
                if int((~data.is_labeled[batch]).sum()) < 2:
                    continue
                where = f" at epoch {epoch}, batch {n_batches}"
                X = make_views(data, batch, hp.noise_sigma, hp.drop_prob, aug_rng)
                Z, acts = forward_cached(head, X)
                breakdown = overall_loss(Z.astype(np.float32), data.is_labeled[batch],
                                         data.labels[batch], protos, r, hp)
                if not math.isfinite(breakdown.l_overall):
                    raise TrainingDiverged("non-finite loss")
                grads = backward(head, X, breakdown.grad_Z, acts)
                sgd_step(head, grads, velocity, lr, hp)
                sums += [getattr(breakdown, name) for name in LOSS_NAMES]
                n_batches += 1
            if n_batches == 0:
                where = ""
                raise TrainingDiverged(
                    f"epoch {epoch} stepped no batch: with batch_size={hp.batch_size} "
                    "no batch holds the 2 unlabeled rows a step needs"
                )

            where = f" at the end of epoch {epoch}"
            feats = forward(head, data.points)
            assignments = np.argmax(predict_probs(feats, protos, hp.tau_p), axis=1)
            r = ema_update(r, hard_histogram(assignments[unlab], data.num_classes), hp.mu)
            protos = update_prototypes(
                feats, assignments, data.labels, data.is_labeled, protos, PROTOTYPE_EMA
            )

            means = dict(zip(LOSS_NAMES, (sums / n_batches).tolist()))
            logs.append(EpochLog(epoch=epoch, **means, lr=lr, prior_r=r))
    except TrainingDiverged as exc:
        # numeric trouble mid-run (exploding or collapsing features) becomes
        # a diagnostic record rather than an exception
        return RunRecord(
            config=config_echo, epoch_logs=logs, metrics=None,
            status="failed", error=f"{exc}{where}", head=head, protos=protos,
        )

    metrics = evaluate(head, data, hp.seed)
    return RunRecord(
        config=config_echo, epoch_logs=logs, metrics=metrics,
        head=head, protos=protos,
    )


def _run_job(plan: ExperimentPlan, cell: SweepCell) -> dict:
    """One sweep cell: regenerate the split for (rho, seed), train, evaluate.

    A failed run becomes a non-ok status so the sweep continues. The plan
    validated every cell, so anything raised here is a bug and propagates.
    """
    hp = cell.hp
    data = generate_mixture(cell.split, plan.sep, derive_stream(hp.seed, "split"))
    record = train_one(data, hp)
    return {
        "run_id": cell.run_id,
        "seed": hp.seed,
        "rho": cell.split.rho,
        "alpha": hp.alpha,
        "beta": hp.beta,
        "lambda": hp.lambda_,
        "status": record.status,
        "error": record.error,
        **(record.metrics.accuracies() if record.metrics is not None else {}),
    }


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
    continues. With two or more cells and ``plan.workers >= 2``, the cells run
    on that many processes, all queued at once, so a slow cell idles no other
    worker; rows keep plan order either way."""
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = plan.jobs()
    if plan.workers < 2 or len(cells) < 2:
        rows = [_run_job(plan, cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            rows = list(pool.map(_run_job, itertools.repeat(plan), cells))

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
