"""Fold paired perfbench runs of a parent commit and a change into one JSON file.

Run each workload at the same seeds in a checkout of the parent and in the
change, alternating which side runs first, for example

    python3 perfbench/run.py --workload embed_score --seed 11 --seconds 30

Then, from the change's checkout:

    python3 scripts/bench_record.py --parent ../parent/perfbench-out \\
        --change perfbench-out --out BENCH_7.json

Each ``<workload>-seed<seed>-trace0.json`` present in both directories is one
pair. The output records the environment the runs share, every pair's
end-to-end metrics and which side ran first (the record written first), and
for each workload and metric of BENCHMARK.json: each side's median and
quartiles, and how many pairs the change and the parent each won, by the
metric's ``better`` direction (ties count for neither).

``--stability PARENT CHANGE`` adds the two ``scripts/seed_report.py`` JSON
tables, one from each checkout, as the ``stability`` section.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace0\.json")
SIDES = ("parent", "change")


def read_records(out_dir: Path) -> dict[tuple[str, int], tuple[dict, float]]:
    """The untraced records of ``out_dir`` by (workload, seed), each with the
    time it was written."""
    records = {}
    for path in out_dir.iterdir():
        match = RECORD.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]))
            records[key] = (json.loads(path.read_text()), path.stat().st_mtime)
    return records


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def fold(parent_dir: Path, change_dir: Path, spec: dict) -> dict:
    records = dict(zip(SIDES, (read_records(parent_dir), read_records(change_dir))))
    keys = sorted(records["parent"].keys() & records["change"].keys())
    if not keys:
        raise SystemExit("bench_record: no workload and seed was run on both sides")
    environments = {
        json.dumps({k: v for k, v in records[side][key][0]["environment"].items() if k != "seed"},
                   sort_keys=True)
        for side in SIDES for key in keys
    }
    if len(environments) != 1:
        raise SystemExit(f"bench_record: the runs differ in environment: {sorted(environments)}")

    workloads: dict[str, dict] = {}
    for workload, seed in keys:
        (parent, parent_time), (change, change_time) = (records[s][workload, seed] for s in SIDES)
        workloads.setdefault(workload, {"pairs": []})["pairs"].append({
            "seed": seed,
            "first": "parent" if parent_time <= change_time else "change",
            "parent": parent["metrics"],
            "change": change["metrics"],
        })
    for workload, entry in workloads.items():
        pairs = entry["pairs"]
        if len(pairs) < 2:
            raise SystemExit(f"bench_record: {workload} has one pair; quartiles need two")
        entry["metrics"] = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            gains = [sign * (p["change"][name] - p["parent"][name]) for p in pairs]
            entry["metrics"][name] = {
                **{side: spread([p[side][name] for p in pairs]) for side in SIDES},
                "change_wins": sum(g > 0 for g in gains),
                "parent_wins": sum(g < 0 for g in gains),
            }
    return {
        "environment": json.loads(environments.pop()),
        "command": spec["command"] + ["--workload", "<workload>", "--seed", "<seed>",
                                      "--seconds", str(spec["run_seconds"])],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's perfbench-out")
    parser.add_argument("--change", required=True, type=Path, help="the change's perfbench-out")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--stability", nargs=2, type=Path, metavar=SIDES,
                        help="seed_report.py tables of the parent and the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = fold(args.parent, args.change, spec)
    if args.stability:
        bench["stability"] = {side: json.loads(path.read_text())
                              for side, path in zip(SIDES, args.stability)}
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    for workload, entry in bench["workloads"].items():
        op = entry["metrics"]["op_s"]
        print(f"{workload}: {len(entry['pairs'])} pairs, op_s median "
              f"{op['parent']['median']:.3f} -> {op['change']['median']:.3f} s, "
              f"change won {op['change_wins']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
