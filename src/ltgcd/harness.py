"""Experiment runner: single training runs, grid sweeps, CSV and SVG output.

A run owns its model and all of its named random streams, so runs are
independent jobs; a sweep executes them (optionally in worker processes) and
merges results in plan order, which keeps every output file byte-stable for
a fixed plan.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .config import Hyperparams, SplitSpec
from .data import EmbeddingDataset, generate_mixture, make_views
from .errors import TrainingDiverged, ValidationError
from .evaluation import MetricsReport, evaluate
from .losses import BatchViews, overall_loss
from .model import (
    ProjectionHead,
    Prototypes,
    backward,
    forward,
    forward_cached,
    init_head,
    init_optimizer,
    init_prototypes,
    learning_rate,
    predict_probs,
    sgd_step,
    update_prototypes,
)
from .prior import ema_update, hard_histogram, init_uniform
from .rng import derive_stream

DEFAULT_SEP = 5.0
DEFAULT_NOISE_SIGMA = 0.1
DEFAULT_DROP_PROB = 0.1
DEFAULT_HIDDEN = 64
DEFAULT_OUT_DIM = 32
PROTOTYPE_EMA = 0.9

RESULTS_HEADER = ["run_id", "seed", "rho", "alpha", "beta", "lambda",
                  "all", "known", "un1", "un2"]
SUMMARY_HEADER = ["rho", "alpha", "beta", "lambda", "metric", "mean", "std", "n"]
METRIC_NAMES = ("all", "known", "un1", "un2")


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
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    drop_prob: float = DEFAULT_DROP_PROB
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("rhos", "alphas", "betas", "seeds"):
            if not len(getattr(self, name)):
                raise ValidationError(f"plan field {name} must be a non-empty list")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def jobs(self) -> list[dict]:
        """Cross product in plan order: rho, then alpha, then beta, then seed."""
        out = []
        idx = 0
        for rho in self.rhos:
            for alpha in self.alphas:
                for beta in self.betas:
                    for seed in self.seeds:
                        out.append({
                            "run_id": f"r{idx:04d}",
                            "rho": float(rho),
                            "alpha": float(alpha),
                            "beta": float(beta),
                            "seed": int(seed),
                        })
                        idx += 1
        return out


def _batch_iter(perm: np.ndarray, batch_size: int):
    for start in range(0, len(perm), batch_size):
        yield perm[start:start + batch_size]


def _interleave(view_a: np.ndarray, view_b: np.ndarray) -> np.ndarray:
    stacked = np.empty((2 * view_a.shape[0], view_a.shape[1]))
    stacked[0::2] = view_a
    stacked[1::2] = view_b
    return stacked


def train_one(
    data: EmbeddingDataset,
    hp: Hyperparams,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    drop_prob: float = DEFAULT_DROP_PROB,
    hidden: int = DEFAULT_HIDDEN,
    out_dim: int = DEFAULT_OUT_DIM,
) -> RunRecord:
    """Train on one dataset and evaluate the final snapshot.

    Per epoch: shuffled batches of (augment, forward, loss, backward, step),
    then prior refresh from the unlabeled hard histogram and the prototype
    EMA update. A non-finite loss, or an epoch that steps no batch, aborts
    with a diagnostic record instead of raising.
    """
    if noise_sigma < 0:
        raise ValidationError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if not 0.0 <= drop_prob < 1.0:
        raise ValidationError(f"drop_prob must be in [0, 1), got {drop_prob}")
    config_echo = {
        **{("lambda" if k == "lambda_" else k): v for k, v in asdict(hp).items()},
        "n": data.n,
        "num_classes": data.num_classes,
        "num_known": len(data.known_classes),
        "dim": data.dim,
        "noise_sigma": noise_sigma,
        "drop_prob": drop_prob,
        "hidden": hidden,
        "out_dim": out_dim,
    }

    init_rng = derive_stream(hp.seed, "init")
    batch_rng = derive_stream(hp.seed, "batch")
    aug_rng = derive_stream(hp.seed, "aug")
    proto_rng = derive_stream(hp.seed, "proto-seed")

    head = init_head(data.dim, hidden, out_dim, init_rng)
    feats = forward(head, data.points)
    protos = init_prototypes(
        feats, data.labels, data.is_labeled,
        len(data.known_classes), data.num_classes, proto_rng,
    )
    prior = init_uniform(data.num_classes, hp.mu)
    opt = init_optimizer(head, hp.epochs)
    unlab = data.unlabeled_indices

    logs: list[EpochLog] = []
    try:
        for epoch in range(hp.epochs):
            opt.epoch = epoch
            lr = learning_rate(hp.lr0, epoch, hp.epochs)
            sums = np.zeros(5)
            n_batches = 0
            for batch in _batch_iter(batch_rng.permutation(data.n), hp.batch_size):
                if int((~data.is_labeled[batch]).sum()) < 2:
                    continue
                views = make_views(data, batch, noise_sigma, drop_prob, aug_rng)
                X = _interleave(views.view_a, views.view_b)
                Z, acts = forward_cached(head, X)
                bv = BatchViews(
                    Z=Z,
                    labeled_mask=data.is_labeled[batch],
                    labels=data.labels[batch],
                )
                breakdown = overall_loss(bv, protos, prior.r, hp)
                if not math.isfinite(breakdown.l_overall):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {n_batches}"
                    )
                grads = backward(head, X, breakdown.grad_Z, acts)
                sgd_step(head, grads, opt, hp)
                sums += (breakdown.l_ins, breakdown.l_sup, breakdown.h_prior,
                         breakdown.h_uniform, breakdown.l_overall)
                n_batches += 1
            if n_batches == 0:
                raise ValidationError(
                    f"epoch {epoch} stepped no batch: with batch_size={hp.batch_size} "
                    "no batch holds the 2 unlabeled rows a step needs"
                )

            feats = forward(head, data.points)
            probs = predict_probs(feats, protos, hp.tau_p)
            prior = ema_update(prior, hard_histogram(probs[unlab]))
            assignments = np.argmax(probs, axis=1)
            protos = update_prototypes(
                feats, assignments, data.labels, data.is_labeled, protos, PROTOTYPE_EMA
            )

            means = sums / n_batches
            logs.append(EpochLog(
                epoch=epoch,
                l_ins=float(means[0]),
                l_sup=float(means[1]),
                h_prior=float(means[2]),
                h_uniform=float(means[3]),
                l_overall=float(means[4]),
                lr=lr,
                prior_r=np.array(prior.r),
            ))
    except (TrainingDiverged, ValidationError, FloatingPointError) as exc:
        # numeric trouble mid-run (exploding or collapsing features) becomes
        # a diagnostic record rather than an exception
        status = "diverged" if isinstance(exc, TrainingDiverged) else "failed"
        return RunRecord(
            config=config_echo, epoch_logs=logs, metrics=None,
            status=status, error=str(exc), head=head, protos=protos,
        )

    metrics = evaluate(head, data, hp.seed)
    return RunRecord(
        config=config_echo, epoch_logs=logs, metrics=metrics,
        head=head, protos=protos,
    )


def _run_job(args: dict) -> dict:
    """One sweep cell: regenerate the split for (rho, seed), train, evaluate.

    Never raises; any failure becomes a non-ok status so the sweep continues.
    """
    out = {
        "run_id": args["run_id"],
        "seed": args["seed"],
        "rho": args["rho"],
        "alpha": args["alpha"],
        "beta": args["beta"],
        "lambda": args["hp"]["lambda_"],
        "status": "ok",
        "error": None,
    }
    try:
        split = replace(SplitSpec(**args["split"]), rho=args["rho"])
        hp = replace(
            Hyperparams(**args["hp"]),
            alpha=args["alpha"], beta=args["beta"], seed=args["seed"],
        )
        data = generate_mixture(split, args["sep"], derive_stream(args["seed"], "split"))
        record = train_one(
            data, hp,
            noise_sigma=args["noise_sigma"],
            drop_prob=args["drop_prob"],
        )
    except Exception as exc:
        out["status"] = "failed"
        out["error"] = str(exc)
        return out
    out["status"] = record.status
    out["error"] = record.error
    if record.metrics is not None:
        out.update({
            "all": record.metrics.all_acc,
            "known": record.metrics.known_acc,
            "un1": record.metrics.un1_acc,
            "un2": record.metrics.un2_acc,
        })
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def sweep(plan: ExperimentPlan) -> dict[str, Path]:
    """Run the plan cross product and write results.csv, summary.csv, and one
    trend SVG per swept axis. Failed runs land in failures.csv and the sweep
    continues."""
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = plan.jobs()
    job_args = [
        {
            **job,
            "hp": {k: v for k, v in asdict(plan.hp).items()},
            "split": asdict(plan.split),
            "sep": plan.sep,
            "noise_sigma": plan.noise_sigma,
            "drop_prob": plan.drop_prob,
        }
        for job in jobs
    ]

    if plan.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            rows = list(pool.map(_run_job, job_args))
    else:
        rows = [_run_job(args) for args in job_args]

    artifacts: dict[str, Path] = {}
    ok_rows = [r for r in rows if r["status"] == "ok"]
    failed = [r for r in rows if r["status"] != "ok"]

    results_path = out_dir / "results.csv"
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in ok_rows:
            writer.writerow([
                r["run_id"], r["seed"], _fmt(r["rho"]), _fmt(r["alpha"]),
                _fmt(r["beta"]), _fmt(r["lambda"]),
                _fmt(r["all"]), _fmt(r["known"]), _fmt(r["un1"]), _fmt(r["un2"]),
            ])
    artifacts["results"] = results_path

    if failed:
        failures_path = out_dir / "failures.csv"
        with open(failures_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "seed", "rho", "alpha", "beta", "status", "error"])
            for r in failed:
                writer.writerow([
                    r["run_id"], r["seed"], _fmt(r["rho"]), _fmt(r["alpha"]),
                    _fmt(r["beta"]), r["status"], r["error"],
                ])
        artifacts["failures"] = failures_path

    summary_path = out_dir / "summary.csv"
    seen_configs: list[tuple] = []
    for r in ok_rows:
        key = (r["rho"], r["alpha"], r["beta"], r["lambda"])
        if key not in seen_configs:
            seen_configs.append(key)
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for key in seen_configs:
            group = [r for r in ok_rows
                     if (r["rho"], r["alpha"], r["beta"], r["lambda"]) == key]
            for metric in METRIC_NAMES:
                values = [r[metric] for r in group if r[metric] is not None]
                if not values:
                    continue
                mean, std = _mean_std(values)
                writer.writerow([
                    _fmt(key[0]), _fmt(key[1]), _fmt(key[2]), _fmt(key[3]),
                    metric, _fmt(mean), _fmt(std), len(values),
                ])
    artifacts["summary"] = summary_path

    from .svg import line_plot
    axis_values = {"rho": plan.rhos, "alpha": plan.alphas, "beta": plan.betas}
    label = {"all": "All", "known": "Known", "un1": "Un1", "un2": "Un2"}
    for axis, values in axis_values.items():
        if len(values) < 2:
            continue
        xs = sorted(float(v) for v in values)
        series: dict[str, list[float | None]] = {label[m]: [] for m in METRIC_NAMES}
        for x in xs:
            group = [r for r in ok_rows if r[axis] == x]
            for m in METRIC_NAMES:
                vals = [r[m] for r in group if r.get(m) is not None]
                series[label[m]].append(_mean_std(vals)[0] if vals else None)
        svg_path = out_dir / f"sweep_{axis}.svg"
        line_plot(
            svg_path, xs, series,
            title=f"Accuracy vs {axis}", x_label=axis,
        )
        artifacts[f"svg_{axis}"] = svg_path

    return artifacts


def write_train_log(path: str | Path, record: RunRecord) -> Path:
    """Per-epoch CSV: loss components, learning rate, prior estimate."""
    path = Path(path)
    num_classes = len(record.epoch_logs[0].prior_r) if record.epoch_logs else 0
    header = ["epoch", "l_ins", "l_sup", "h_prior", "h_uniform", "l_overall", "lr"]
    header += [f"r_{c}" for c in range(num_classes)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for log in record.epoch_logs:
            row = [log.epoch, _fmt(log.l_ins), _fmt(log.l_sup), _fmt(log.h_prior),
                   _fmt(log.h_uniform), _fmt(log.l_overall), _fmt(log.lr)]
            row += [_fmt(float(v)) for v in log.prior_r]
            writer.writerow(row)
    return path
