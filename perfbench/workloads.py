"""The benchmark workloads, driven through the public functions of ``ltgcd``.

Each workload builds its inputs from the workload seed alone. An untraced run
times the workload's operation for about ``seconds`` and returns end-to-end
metrics. A traced run does the operation once untraced and once with spans,
and returns per-layer metrics plus the tracing overhead (traced minus
untraced time).
"""

from __future__ import annotations

import csv
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ltgcd import clustering, data, evaluation, harness, losses, model, svg
from ltgcd.config import SplitSpec, build_params, read_config_file
from ltgcd.rng import derive_stream

from spans import Tracer, counting, nearest_rank

SEP = 5.0
# Set-up is repeated at least SETUP_REPS times and for at least SETUP_MIN_S,
# so that a set-up of a fraction of a millisecond still has a steady median.
SETUP_REPS = 3
SETUP_MIN_S = 0.25
# Accuracy differs from seed to seed by more than timing noise, so each run
# scores a block of seeds and reports the block mean.
DESK_SEEDS = 8
EMBED_SEEDS = 8
SWEEP_ROUNDS = 4
# GCD-embedding width and class count, at 4,500 rows: one score takes about
# 3 s, so a 30 s run holds about ten of them and its median does not rest on
# the two or three scores that fit at 22,500 rows.
EMBED_SPLIT = SplitSpec(num_classes=100, num_known=50, samples_per_known=75, rho=5.0, dim=256)
EMBED_HIDDEN, EMBED_OUT = 64, 32

ACC_NAMES = ("acc_all", "acc_known", "acc_un1", "acc_un2")

# per-layer metric -> (workload that measures it, end-to-end metric it should
# move there). op_s is train_s on desk_train, write_s + load_s + eval_s on
# embed_score and sweep_s on grid_sweep.
LAYER_MAP = {
    "data.make_views.calls": ("desk_train", "train_s"),
    "data.make_views.self_s": ("desk_train", "train_s"),
    "model.forward.calls": ("desk_train", "train_s"),
    "model.forward.rows": ("desk_train", "train_s"),
    "model.forward.self_s": ("desk_train, embed_score", "train_s, eval_s"),
    "model.backward.self_s": ("desk_train", "train_s"),
    "model.sgd_step.self_s": ("desk_train", "train_s"),
    "model.predict_probs.calls": ("desk_train", "train_s"),
    "model.predict_probs.self_s": ("desk_train", "train_s"),
    "model.update_prototypes.self_s": ("desk_train", "train_s"),
    "losses.overall_loss.calls": ("desk_train", "train_s"),
    "losses.overall_loss.self_s": ("desk_train", "train_s"),
    "losses.info_nce.self_s": ("desk_train", "train_s"),
    "losses.sup_con.self_s": ("desk_train", "train_s"),
    "prior.ema_update.self_s": ("desk_train", "train_s"),
    "prior.hard_histogram.self_s": ("desk_train", "train_s"),
    "harness.train_one.self_s": ("desk_train", "train_s"),
    "harness.batches.attempted": ("desk_train", "train_s"),
    "harness.batches.stepped": ("desk_train", "train_s"),
    "harness.step_ratio": ("desk_train", "train_s"),
    "harness.step.p50_s": ("desk_train", "train_s"),
    "harness.step.p98_s": ("desk_train", "train_s"),
    "clustering.seeded_kmeans.self_s": ("desk_train, embed_score", "train_s, eval_s"),
    "losses.sup_warning.count": ("desk_train", "acc_known, acc_un2"),
    "prior.r_tv": ("desk_train", "acc_known, acc_un2"),
    "data.write_dataset.bytes": ("embed_score", "write_s"),
    "data.write_dataset.mb_per_s": ("embed_score", "write_s"),
    "data.load_embeddings.rows_per_s": ("embed_score", "load_s"),
    "model.load_checkpoint.self_s": ("embed_score", "load_s"),
    "clustering.seeded_kmeans.calls": ("embed_score", "eval_s"),
    "clustering.seeded_kmeans.rows": ("embed_score", "eval_s"),
    "clustering.kmeans_pp_extend.self_s": ("embed_score", "eval_s"),
    "evaluation.confusion_counts.self_s": ("embed_score", "eval_s"),
    "evaluation.hungarian.self_s": ("embed_score", "eval_s"),
    "evaluation.matched_accuracy.self_s": ("embed_score", "eval_s"),
    "evaluation.evaluate.self_s": ("embed_score", "eval_s"),
    "harness.sweep.cells": ("grid_sweep", "sweep_s"),
    "harness.sweep.failed_cells": ("grid_sweep", "sweep_s"),
    "harness.sweep.parallel_efficiency": ("grid_sweep", "sweep_s"),
    "svg.line_plot.self_s": ("grid_sweep", "sweep_s"),
    "trace.overhead_s": ("desk_train, embed_score, grid_sweep", "train_s, eval_s, sweep_s"),
}


def _count_rows(counters, result, head, X):
    counters["model.forward.rows"] += len(X)


def _count_kmeans_rows(counters, result, points, *args, **kwargs):
    counters["clustering.seeded_kmeans.rows"] += len(points)


def _count_sup_warning(counters, result, *args, **kwargs):
    counters["losses.sup_warning.count"] += int(result.sup_warning)


# (module, attribute the caller looks up, layer name, per-call counter)
IN_PROCESS_LAYERS = [
    (harness, "train_one", "harness.train_one", None),
    (harness, "make_views", "data.make_views", None),
    (harness, "forward", "model.forward", _count_rows),
    (evaluation, "forward", "model.forward", _count_rows),
    (harness, "backward", "model.backward", None),
    (harness, "sgd_step", "model.sgd_step", None),
    (harness, "predict_probs", "model.predict_probs", None),
    (losses, "predict_probs", "model.predict_probs", None),
    (harness, "update_prototypes", "model.update_prototypes", None),
    (harness, "init_prototypes", "model.init_prototypes", None),
    (model, "load_checkpoint", "model.load_checkpoint", None),
    (harness, "overall_loss", "losses.overall_loss", _count_sup_warning),
    (losses, "info_nce", "losses.info_nce", None),
    (losses, "sup_con", "losses.sup_con", None),
    (harness, "ema_update", "prior.ema_update", None),
    (harness, "hard_histogram", "prior.hard_histogram", None),
    (harness, "evaluate", "evaluation.evaluate", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "seeded_kmeans", "clustering.seeded_kmeans", _count_kmeans_rows),
    (clustering, "kmeans_pp_extend", "clustering.kmeans_pp_extend", None),
    (model, "kmeans_pp_extend", "clustering.kmeans_pp_extend", None),
    (evaluation, "confusion_counts", "evaluation.confusion_counts", None),
    (evaluation, "hungarian", "evaluation.hungarian", None),
    (evaluation, "matched_accuracy", "evaluation.matched_accuracy", None),
    (data, "write_dataset", "data.write_dataset", None),
    (data, "load_embeddings", "data.load_embeddings", None),
]
# Sweep cells run in worker processes, which inherit any wrapper; only the
# layers that run in the parent are wrapped, and worker spans are not kept.
SWEEP_LAYERS = [
    (harness, "sweep", "harness.sweep", None),
    (svg, "line_plot", "svg.line_plot", None),
]


class Checks:
    """Output checks; each one is an operation in the error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Outcome:
    metrics: dict[str, float]
    stages: dict[str, float]      # the operation's stage times, by issue name
    samples: int                  # operations timed
    tracer: Tracer | None = None


def _install(tracer: Tracer, layers) -> None:
    for module, attr, name, count in layers:
        tracer.wrap(module, attr, name, count)


def _set_up(build):
    """Median time of repeated builds, and the last build's result."""
    times, value = [], None
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        value = None  # free the previous build before making the next
        t0 = time.perf_counter()
        value = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value


def _timed_loop(body, n_inputs: int, seconds: float) -> list[dict]:
    """Run ``body(i)`` for i = 0, 1, ...: once per input, then again while one
    more call is predicted to end within ``seconds``. Each call returns its
    stage times."""
    runs: list[dict] = []
    start = time.perf_counter()
    while len(runs) < n_inputs or (
        time.perf_counter() - start + sum(runs[-1].values()) <= seconds
    ):
        runs.append(body(len(runs)))
    return runs


def _medians(runs: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _peak_rss_mb(children: bool = False) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _accuracies(report) -> tuple[float, ...]:
    if report is None:
        return (math.nan,) * len(ACC_NAMES)
    values = (report.all_acc, report.known_acc, report.un1_acc, report.un2_acc)
    return tuple(math.nan if v is None else float(v) for v in values)


def _check_accuracies(checks: Checks, acc: tuple, what: str) -> None:
    checks(all(0.0 <= v <= 1.0 for v in acc), f"{what}: accuracies {acc} outside [0, 1]")


def _end_to_end(setup_s: float, runs: list[dict], accs: list[tuple], peak_mb: float) -> dict:
    metrics = {
        "setup_s": setup_s,
        "op_s": statistics.median(sum(r.values()) for r in runs),
    }
    metrics.update(zip(ACC_NAMES, (float(v) for v in np.mean(accs, axis=0))))
    metrics["peak_rss_mb"] = peak_mb
    return metrics


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _self_sum_matches(tracer: Tracer, root: int) -> bool:
    duration = tracer.spans[root].duration
    return math.isclose(tracer.tree_self_sum(root), duration, rel_tol=1e-9, abs_tol=1e-12)


# --- desk_train ---------------------------------------------------------------

def _desk_params(root: Path):
    return build_params(read_config_file(root / "configs" / "desk.ini"))


def _desk_inputs(root: Path, seeds: list[int]):
    hp, split = _desk_params(root)
    return [
        (data.generate_mixture(split, SEP, derive_stream(s, "split")), replace(hp, seed=s))
        for s in seeds
    ]


def _batches(dataset, hp) -> int:
    return hp.epochs * math.ceil(dataset.n / hp.batch_size)


def _train_checked(dataset, hp, checks: Checks):
    """One train_one call, timed, with its batch steps counted."""
    steps: Counter = Counter()
    with counting(harness, "sgd_step", steps, "stepped"):
        t0 = time.perf_counter()
        record = harness.train_one(dataset, hp)
        elapsed = time.perf_counter() - t0
    what = f"train_one seed {hp.seed}"
    checks(record.status == "ok", f"{what}: status {record.status} ({record.error})")
    checks(steps["stepped"] == _batches(dataset, hp),
           f"{what}: stepped {steps['stepped']} of {_batches(dataset, hp)} batches")
    acc = _accuracies(record.metrics)
    _check_accuracies(checks, acc, what)
    return record, acc, elapsed


def desk_train(root: Path, work: Path, seed: int, seconds: float, checks: Checks) -> Outcome:
    seeds = [seed * DESK_SEEDS + i for i in range(DESK_SEEDS)]
    setup_s, inputs = _set_up(lambda: _desk_inputs(root, seeds))
    accs: dict[int, tuple] = {}

    def body(i: int) -> dict:
        dataset, hp = inputs[i % len(inputs)]
        _, acc, elapsed = _train_checked(dataset, hp, checks)
        if hp.seed in accs:
            checks(acc == accs[hp.seed], f"seed {hp.seed}: accuracy changed on a repeat")
        accs.setdefault(hp.seed, acc)
        return {"train_s": elapsed}

    runs = _timed_loop(body, len(inputs), seconds)
    metrics = _end_to_end(setup_s, runs, list(accs.values()), _peak_rss_mb())
    return Outcome(metrics, _medians(runs), len(runs))


def _step_times(tracer: Tracer) -> list[float]:
    """Per batch: from make_views start to the end of the sgd_step after it."""
    out, start = [], None
    for span in tracer.spans:
        if span.name == "data.make_views":
            start = span.start
        elif span.name == "model.sgd_step" and start is not None:
            out.append(span.end - start)
            start = None
    return out


def _prior_tv(record, dataset) -> float:
    """Total-variation distance from the final prior estimate r to the true
    class histogram of the unlabeled rows."""
    r = record.epoch_logs[-1].prior_r
    truth = np.bincount(dataset.labels[~dataset.is_labeled], minlength=dataset.num_classes)
    return 0.5 * float(np.abs(r - truth / truth.sum()).sum())


def desk_train_traced(root: Path, work: Path, seed: int, checks: Checks) -> Outcome:
    ((dataset, hp),) = _desk_inputs(root, [seed * DESK_SEEDS])
    _, plain_acc, plain_s = _train_checked(dataset, hp, checks)
    with Tracer() as tracer:
        _install(tracer, IN_PROCESS_LAYERS)
        record, traced_acc, _ = _train_checked(dataset, hp, checks)
    checks(tracer.restored(), "a wrapped function was not restored")
    checks(traced_acc == plain_acc, f"traced accuracy {traced_acc} != untraced {plain_acc}")
    (root_span,) = tracer.roots()
    traced_s = tracer.spans[root_span].duration
    checks(_self_sum_matches(tracer, root_span), "self times do not sum to the traced train_one")

    steps = _step_times(tracer)
    attempted = _batches(dataset, hp)
    stepped = tracer.totals()["model.sgd_step"][0]
    extra = {
        "harness.batches.attempted": attempted,
        "harness.batches.stepped": stepped,
        "harness.step_ratio": stepped / attempted,
        "harness.step.p50_s": nearest_rank(steps, 0.50),
        "harness.step.p98_s": nearest_rank(steps, 0.98),
        "prior.r_tv": _prior_tv(record, dataset),
        "trace.overhead_s": traced_s - plain_s,
    }
    stages = {"train_s": plain_s, "traced train_s": traced_s}
    return Outcome(extra, stages, 1, tracer)


# --- embed_score --------------------------------------------------------------

@dataclass
class _EmbedInput:
    seed: int
    dataset: data.EmbeddingDataset
    head: model.ProjectionHead
    protos: model.Prototypes
    checkpoint: Path


def _embed_inputs(work: Path, seeds: list[int]) -> list[_EmbedInput]:
    out = []
    for s in seeds:
        dataset = data.generate_mixture(EMBED_SPLIT, SEP, derive_stream(s, "split"))
        head = model.init_head(EMBED_SPLIT.dim, EMBED_HIDDEN, EMBED_OUT, derive_stream(s, "init"))
        raw = derive_stream(s, "proto").standard_normal((EMBED_SPLIT.num_classes, EMBED_OUT))
        protos = model.Prototypes(M=raw / np.linalg.norm(raw, axis=1, keepdims=True))
        checkpoint = work / f"checkpoint-{s}.json"
        model.save_checkpoint(checkpoint, head, protos)
        out.append(_EmbedInput(s, dataset, head, protos, checkpoint))
    return out


def _check_round_trip(checks: Checks, inp: _EmbedInput, loaded, head, protos) -> None:
    what = f"embed seed {inp.seed}"
    for name in ("points", "labels", "is_labeled"):
        checks(_same_bits(getattr(inp.dataset, name), getattr(loaded, name)),
               f"{what}: loaded {name} differ from the written ones")
    checks(loaded.known_classes == inp.dataset.known_classes, f"{what}: known classes differ")
    for name, arr in inp.head.params().items():
        checks(_same_bits(arr, getattr(head, name)), f"{what}: checkpoint {name} differs")
    checks(_same_bits(inp.protos.M, protos.M), f"{what}: checkpoint prototypes differ")


def _check_report(checks: Checks, report, dataset, what: str) -> tuple:
    n_unlabeled = len(dataset.unlabeled_indices)
    checks(report.n_all == n_unlabeled, f"{what}: n_all {report.n_all} != {n_unlabeled}")
    acc = _accuracies(report)
    _check_accuracies(checks, acc, what)
    return acc


def _score(inp: _EmbedInput, out_dir: Path, checks: Checks) -> tuple[dict, tuple, int]:
    """write_dataset, load_embeddings + load_checkpoint, evaluate; returns the
    stage times, the accuracies and the bytes written."""
    t0 = time.perf_counter()
    manifest = data.write_dataset(inp.dataset, out_dir)
    t1 = time.perf_counter()
    loaded = data.load_embeddings(manifest)
    head, protos = model.load_checkpoint(inp.checkpoint)
    t2 = time.perf_counter()
    report = evaluation.evaluate(head, loaded, inp.seed)
    t3 = time.perf_counter()
    _check_round_trip(checks, inp, loaded, head, protos)
    acc = _check_report(checks, report, loaded, f"embed seed {inp.seed}")
    written = sum(p.stat().st_size for p in out_dir.iterdir())
    for path in out_dir.iterdir():
        path.unlink()
    return {"write_s": t1 - t0, "load_s": t2 - t1, "eval_s": t3 - t2}, acc, written


def embed_score(root: Path, work: Path, seed: int, seconds: float, checks: Checks) -> Outcome:
    seeds = [seed * EMBED_SEEDS + i for i in range(EMBED_SEEDS)]
    setup_s, inputs = _set_up(lambda: _embed_inputs(work, seeds))
    accs: dict[int, tuple] = {}

    def body(i: int) -> dict:
        inp = inputs[i % len(inputs)]
        stages, acc, _ = _score(inp, work / "data", checks)
        if inp.seed in accs:
            checks(acc == accs[inp.seed], f"seed {inp.seed}: accuracy changed on a repeat")
        accs.setdefault(inp.seed, acc)
        return stages

    runs = _timed_loop(body, len(inputs), seconds)
    metrics = _end_to_end(setup_s, runs, list(accs.values()), _peak_rss_mb())
    return Outcome(metrics, _medians(runs), len(runs))


def embed_score_traced(root: Path, work: Path, seed: int, checks: Checks) -> Outcome:
    (inp,) = _embed_inputs(work, [seed * EMBED_SEEDS])
    t0 = time.perf_counter()
    plain = evaluation.evaluate(inp.head, inp.dataset, inp.seed)
    plain_s = time.perf_counter() - t0
    plain_acc = _check_report(checks, plain, inp.dataset, "untraced evaluate")
    with Tracer() as tracer:
        _install(tracer, IN_PROCESS_LAYERS)
        _, acc, written = _score(inp, work / "data", checks)
    checks(tracer.restored(), "a wrapped function was not restored")
    checks(acc == plain_acc, f"traced accuracy {acc} != untraced {plain_acc}")
    roots = {tracer.spans[i].name: i for i in tracer.roots()}
    for name, i in roots.items():
        checks(_self_sum_matches(tracer, i), f"self times do not sum to {name}")
    write_s, load_s, eval_s = (
        tracer.spans[roots[name]].duration
        for name in ("data.write_dataset", "data.load_embeddings", "evaluation.evaluate")
    )
    extra = {
        "data.write_dataset.bytes": written,
        "data.write_dataset.mb_per_s": written / 1e6 / write_s,
        "data.load_embeddings.rows_per_s": inp.dataset.n / load_s,
        "trace.overhead_s": eval_s - plain_s,
    }
    stages = {"eval_s": plain_s, "traced eval_s": eval_s}
    return Outcome(extra, stages, 1, tracer)


# --- grid_sweep ---------------------------------------------------------------

def _grid_inputs(root: Path, work: Path, seed: int):
    """The sweep plans, and the desk_train inputs of the cell that the first
    sweep is checked against."""
    hp, split = _desk_params(root)
    plans = []
    for j in range(SWEEP_ROUNDS):
        base = 2 * (seed * SWEEP_ROUNDS + j)
        plans.append(harness.ExperimentPlan(
            hp=hp, split=split, rhos=(split.rho,), alphas=(1.0,), betas=(0.0, 2.0),
            seeds=(base, base + 1), out_dir=work / f"sweep-{j}", sep=SEP, workers=2,
        ))
    (reference,) = _desk_inputs(root, [plans[0].seeds[0]])
    return plans, reference


def _sweep_checked(plan, checks: Checks) -> tuple[list[dict], float]:
    """One timed sweep; checks one results.csv row per cell and no failures."""
    t0 = time.perf_counter()
    artifacts = harness.sweep(plan)
    elapsed = time.perf_counter() - t0
    with open(artifacts["results"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = len(plan.jobs())
    checks(len(rows) == cells, f"sweep {plan.seeds}: {len(rows)} result rows for {cells} cells")
    checks("failures" not in artifacts, f"sweep {plan.seeds}: wrote failures.csv")
    for row in rows:
        _check_accuracies(checks, _row_accuracies(row), f"sweep row {row['run_id']}")
    return rows, elapsed


def _row_accuracies(row: dict) -> tuple[float, ...]:
    return tuple(float(row[k]) for k in ("all", "known", "un1", "un2"))


def _check_matches_desk(reference, rows: list[dict], checks: Checks) -> None:
    """The sweep cell (alpha 1, beta 2, seed s) must equal a serial
    train_one on the desk_train inputs for seed s, bit for bit."""
    dataset, hp = reference
    record = harness.train_one(dataset, replace(hp, alpha=1.0, beta=2.0))
    (row,) = [r for r in rows
              if float(r["alpha"]) == 1.0 and float(r["beta"]) == 2.0 and int(r["seed"]) == hp.seed]
    checks(record.metrics is not None and _row_accuracies(row) == _accuracies(record.metrics),
           f"sweep cell seed {hp.seed} differs from a serial train_one")


def grid_sweep(root: Path, work: Path, seed: int, seconds: float, checks: Checks) -> Outcome:
    setup_s, (plans, reference) = _set_up(lambda: _grid_inputs(root, work, seed))
    first_rows: dict[int, list[dict]] = {}

    def body(i: int) -> dict:
        rows, elapsed = _sweep_checked(plans[i % len(plans)], checks)
        first_rows.setdefault(i % len(plans), rows)
        return {"sweep_s": elapsed}

    runs = _timed_loop(body, len(plans), seconds)
    _check_matches_desk(reference, first_rows[0], checks)
    accs = [_row_accuracies(r) for rows in first_rows.values() for r in rows]
    metrics = _end_to_end(setup_s, runs, accs, _peak_rss_mb(children=True))
    return Outcome(metrics, _medians(runs), len(runs))


def grid_sweep_traced(root: Path, work: Path, seed: int, checks: Checks) -> Outcome:
    plan = _grid_inputs(root, work, seed)[0][0]
    serial = replace(plan, workers=1, out_dir=work / "serial")
    _, serial_s = _sweep_checked(serial, checks)
    _, plain_s = _sweep_checked(plan, checks)
    traced = replace(plan, out_dir=work / "traced")
    with Tracer() as tracer:
        _install(tracer, SWEEP_LAYERS)
        _sweep_checked(traced, checks)
    checks(tracer.restored(), "a wrapped function was not restored")
    (root_span,) = tracer.roots()
    checks(_self_sum_matches(tracer, root_span), "self times do not sum to the traced sweep")
    results = [(p.out_dir / "results.csv").read_bytes() for p in (serial, plan, traced)]
    checks(results[0] == results[1] == results[2],
           "results.csv differs between 1 worker, 2 workers and the traced sweep")
    failures = traced.out_dir / "failures.csv"
    traced_s = tracer.spans[root_span].duration
    extra = {
        "harness.sweep.cells": len(plan.jobs()),
        "harness.sweep.failed_cells": (len(failures.read_text().splitlines()) - 1
                                       if failures.exists() else 0),
        "harness.sweep.parallel_efficiency": serial_s / (plan.workers * plain_s),
        "trace.overhead_s": traced_s - plain_s,
    }
    stages = {"sweep_s": plain_s, "serial sweep_s": serial_s, "traced sweep_s": traced_s}
    return Outcome(extra, stages, 3, tracer)


WORKLOADS = {
    "desk_train": (desk_train, desk_train_traced),
    "embed_score": (embed_score, embed_score_traced),
    "grid_sweep": (grid_sweep, grid_sweep_traced),
}


def per_layer_metrics(tracer: Tracer | None, extra: dict, names) -> dict[str, float]:
    """Every declared per-layer metric: ``<layer>.self_s`` and ``<layer>.calls``
    from the spans, counters from the tracer, the rest from ``extra``. A
    layer the workload does not call reads 0."""
    totals = tracer.totals() if tracer else {}
    counters = tracer.counters if tracer else Counter()
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name.endswith(".self_s"):
            out[name] = totals.get(name[: -len(".self_s")], (0, 0.0))[1]
        elif name.endswith(".calls"):
            out[name] = totals.get(name[: -len(".calls")], (0, 0.0))[0]
        else:
            out[name] = counters.get(name, 0)
    return out
