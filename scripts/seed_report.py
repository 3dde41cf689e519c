"""Seed-stability report of the trend criteria 5-7.

Trains the four trend cells of the acceptance suite, (alpha, beta) = (0, 0),
(0, 2), (0, 5) and (1, 2), on the desk split over seeds 0-9 through
``harness.sweep`` with worker processes. It prints each cell's mean metrics
and, for each margin that criteria 5-7 gate, the per-seed paired differences
with their mean, sd, minimum and sign count. Run from the repository root:

    python3 scripts/seed_report.py --out seed_report.json

The differences are paired by seed, so a margin's mean over seeds 0-2 is the
value its criterion gates. The report gates nothing: the criteria keep their
seeds and thresholds. To compare a change with its parent, run the report in
a checkout of each and fold the two JSON tables into the change's
``BENCH_<n>.json`` with ``scripts/bench_record.py --stability``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so runs are reproducible and the sweep's worker
# processes, which inherit the environment, do not oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ltgcd.config import Hyperparams, SplitSpec  # noqa: E402
from ltgcd.harness import ExperimentPlan, sweep  # noqa: E402

SEEDS = tuple(range(10))
# the acceptance suite's trend runs: desk split, 60 epochs at batch 256
HP = Hyperparams(epochs=60, batch_size=256)
SPLIT = SplitSpec()
# the four cells as sweep grids of (alphas, betas)
GRIDS = (((0.0,), (0.0, 2.0, 5.0)), ((1.0,), (2.0,)))
METRICS = ("all", "known", "un1", "un2")

# name -> (gate, margin of one seed's cells keyed by (alpha, beta))
MARGINS = {
    "c5_un2_gain": ("> 0.02", lambda c: c[0, 2]["un2"] - c[0, 0]["un2"]),
    "c5_known_drop": ("< 0", lambda c: c[0, 5]["known"] - c[0, 0]["known"]),
    "c6_known_gain": (">= 0", lambda c: c[1, 2]["known"] - c[0, 2]["known"]),
    "c7_known_minus_un1": (">= -0.02", lambda c: c[1, 2]["known"] - c[1, 2]["un1"]),
    "c7_un1_minus_un2": (">= -0.02", lambda c: c[1, 2]["un1"] - c[1, 2]["un2"]),
}


def run_cells(workers: int, work_dir: Path) -> list[dict]:
    """Every run of the four cells as a ``results.csv`` row of floats."""
    rows = []
    for i, (alphas, betas) in enumerate(GRIDS):
        plan = ExperimentPlan(hp=HP, split=SPLIT, rhos=(SPLIT.rho,), alphas=alphas,
                              betas=betas, seeds=SEEDS, out_dir=work_dir / f"grid{i}",
                              workers=workers)
        artifacts = sweep(plan)
        if "failures" in artifacts:
            raise SystemExit(f"seed_report: runs failed, see {artifacts['failures']}")
        with open(artifacts["results"], newline="") as fh:
            rows += [{k: float(v) for k, v in row.items() if k != "run_id"}
                     for row in csv.DictReader(fh)]
    return rows


def summarize(rows: list[dict]) -> dict:
    """Per-cell means over the seeds and the per-seed margins of criteria 5-7."""
    by_seed: dict[int, dict] = {}
    for row in rows:
        cell = (int(row["alpha"]), int(row["beta"]))
        by_seed.setdefault(int(row["seed"]), {})[cell] = row
    seeds = sorted(by_seed)
    cells = {}
    for cell in sorted(by_seed[seeds[0]]):
        cells[f"alpha={cell[0]},beta={cell[1]}"] = {
            m: statistics.fmean(by_seed[s][cell][m] for s in seeds) for m in METRICS
        }
    margins = {}
    for name, (gate, margin) in MARGINS.items():
        values = [margin(by_seed[s]) for s in seeds]
        margins[name] = {
            "gate": gate,
            "per_seed": values,
            "mean": statistics.fmean(values),
            "sd": statistics.stdev(values),
            "min": min(values),
            "positive": sum(v > 0 for v in values),
            "negative": sum(v < 0 for v in values),
        }
    return {"seeds": seeds, "cells": cells, "margins": margins}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", type=Path, help="write the table as JSON here")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as work:
        rows = run_cells(args.workers, Path(work))
    report = {**summarize(rows), "workers": args.workers,
              "elapsed_s": round(time.monotonic() - t0, 1)}

    print(f"{len(rows)} runs over seeds {report['seeds'][0]}-{report['seeds'][-1]} "
          f"in {report['elapsed_s']} s with {args.workers} workers")
    print("cell            " + "".join(f"{m:>8}" for m in METRICS))
    for cell, means in report["cells"].items():
        print(f"{cell:<16}" + "".join(f"{means[m]:8.3f}" for m in METRICS))
    for name, entry in report["margins"].items():
        print(f"{name} (gate {entry['gate']}): mean {entry['mean']:+.3f}, "
              f"sd {entry['sd']:.3f}, min {entry['min']:+.3f}, "
              f"{entry['positive']} positive / {entry['negative']} negative")
        print("  per seed: " + " ".join(f"{v:+.3f}" for v in entry["per_seed"]))
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
