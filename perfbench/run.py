"""Benchmark of ltgcd: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk_train --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` reports its per-layer metrics instead. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The environment, the stage times
and, for traced runs, every span are written to ``perfbench-out/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads; sweep workers inherit the environment.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"


def _parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse_args(argv, spec)
    missing = [p for p in ("src/ltgcd/__init__.py", "configs/desk.ini") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of ltgcd, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    mode = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[mode]}
    env = environment(args.seed)
    print("environment " + json.dumps(env), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    checks = workloads.Checks()
    untraced, traced = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        if args.trace:
            outcome = traced(ROOT, Path(work), args.seed, checks)
            metrics = workloads.per_layer_metrics(outcome.tracer, outcome.metrics, declared)
        else:
            outcome = untraced(ROOT, Path(work), args.seed, args.seconds, checks)
            metrics = dict(outcome.metrics)
    attempted = checks.attempted + outcome.samples
    failed = len(checks.failures)
    if not args.trace:
        metrics["ok_rate"] = 1.0 - failed / attempted
    if set(metrics) != set(declared):
        raise SystemExit(f"perfbench: emitted {sorted(set(metrics) ^ set(declared))} "
                         f"disagree with BENCHMARK.json {mode}")

    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {outcome.samples} timed operations, "
          f"error_rate {failed / attempted} ({failed}/{attempted})")
    for stage, value in outcome.stages.items():
        print(f"  {stage:<24} {value:.6f} s")
    for name, value in metrics.items():
        target = ""
        if args.trace:
            workload, e2e = workloads.LAYER_MAP[name]
            target = f"  -> {e2e} on {workload}"
        print(f"  {name:<36} {value:.6g} {declared[name]}{target}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "stages": outcome.stages,
        "metrics": metrics,
        "failures": checks.failures,
        "spans": outcome.tracer.as_records() if outcome.tracer else [],
    }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": declared[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
