"""scripts/bench_record.py: pairing, medians and win counts."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 30,
    "end_to_end": [{"name": "op_s", "better": "lower"}, {"name": "acc_all", "better": "higher"}],
}


def record(directory: Path, seed: int, op_s: float, acc: float, mtime: float, numpy="2.0"):
    directory.mkdir(exist_ok=True)
    path = directory / f"embed_score-seed{seed}-trace0.json"
    path.write_text(json.dumps({
        "environment": {"numpy": numpy, "seed": seed},
        "metrics": {"op_s": op_s, "acc_all": acc},
    }))
    os.utime(path, (mtime, mtime))


def test_folds_pairs_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, (p_op, c_op) in enumerate([(3.0, 2.0), (3.2, 1.8), (2.9, 3.1)]):
        seed = 11 + i
        # alternate which side is written first
        record(parent, seed, p_op, 0.5, 100 * i + (0 if i % 2 == 0 else 50))
        record(change, seed, c_op, 0.5 + 0.1 * (i == 0), 100 * i + (50 if i % 2 == 0 else 0))
    record(parent, 99, 1.0, 0.5, 1000)  # unpaired: ignored
    (tmp_path / "parent" / "desk_train-seed1-trace1.json").write_text("{}")  # traced: ignored

    bench = bench_record.fold(parent, change, SPEC)
    assert bench["environment"] == {"numpy": "2.0"}
    assert bench["command"][-6:] == ["--workload", "<workload>", "--seed", "<seed>",
                                     "--seconds", "30"]
    entry = bench["workloads"]["embed_score"]
    assert [p["seed"] for p in entry["pairs"]] == [11, 12, 13]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
    op = entry["metrics"]["op_s"]
    assert op["parent"]["median"] == 3.0 and op["change"]["median"] == 2.0
    assert op["parent"]["q1"] == pytest.approx(2.95) and op["parent"]["q3"] == pytest.approx(3.1)
    assert (op["change_wins"], op["parent_wins"]) == (2, 1)
    acc = entry["metrics"]["acc_all"]
    assert (acc["change_wins"], acc["parent_wins"]) == (1, 0)


def test_traced_pairs_are_listed_side_by_side(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        record(parent, seed, 3.0, 0.5, seed)
        record(change, seed, 2.0, 0.5, seed)
    for side, rate in ((parent, 100.0), (change, 200.0)):
        for seed in (1, 7):
            (side / f"embed_score-seed{seed}-trace1.json").write_text(json.dumps({
                "environment": {"seed": seed},
                "stages": {"eval_s": 0.1},
                "metrics": {"data.load_embeddings.rows_per_s": rate},
            }))
    (parent / "embed_score-seed8-trace1.json").write_text("{}")   # unpaired: ignored

    traced = bench_record.fold(parent, change, SPEC)["workloads"]["embed_score"]["traced"]
    assert [t["seed"] for t in traced] == [1, 7]
    assert traced[0]["parent"] == {"stages": {"eval_s": 0.1},
                                   "metrics": {"data.load_embeddings.rows_per_s": 100.0}}
    assert traced[1]["change"]["metrics"]["data.load_embeddings.rows_per_s"] == 200.0


def test_rejects_runs_from_different_environments(tmp_path):
    for seed in (1, 2):
        record(tmp_path / "parent", seed, 1.0, 0.5, seed)
        record(tmp_path / "change", seed, 1.0, 0.5, seed, numpy="1.26")
    with pytest.raises(SystemExit, match="differ in environment"):
        bench_record.fold(tmp_path / "parent", tmp_path / "change", SPEC)


def test_rejects_a_single_pair(tmp_path):
    record(tmp_path / "parent", 1, 1.0, 0.5, 1)
    record(tmp_path / "change", 1, 1.0, 0.5, 2)
    with pytest.raises(SystemExit, match="one pair"):
        bench_record.fold(tmp_path / "parent", tmp_path / "change", SPEC)


def test_stability_tables_become_a_section(tmp_path):
    names = [m["name"] for m in json.loads(
        (bench_record.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for side, op_s in (("parent", 1.0), ("change", 0.9)):
        (tmp_path / side).mkdir()
        for seed in (1, 2):
            (tmp_path / side / f"desk_train-seed{seed}-trace0.json").write_text(json.dumps({
                "environment": {"seed": seed},
                "metrics": {**dict.fromkeys(names, 0.5), "op_s": op_s},
            }))
    tables = []
    for side in ("parent", "change"):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps({"side": side}))
        tables.append(str(path))
    out = tmp_path / "bench.json"
    assert bench_record.main(["--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"),
                              "--out", str(out), "--stability", *tables]) == 0
    bench = json.loads(out.read_text())
    assert bench["stability"] == {"parent": {"side": "parent"}, "change": {"side": "change"}}
    assert bench["workloads"]["desk_train"]["metrics"]["op_s"]["change_wins"] == 2


def test_prints_every_metric_of_every_workload(tmp_path, capsys):
    spec = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())
    for side, rss in (("parent", 97.0), ("change", 57.0)):
        (tmp_path / side).mkdir()
        for workload in ("desk_train", "embed_score"):
            for seed in (1, 2):
                (tmp_path / side / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps({
                    "environment": {"seed": seed},
                    "metrics": {**{m["name"]: 0.5 for m in spec["end_to_end"]},
                                "peak_rss_mb": rss + seed},
                }))
    assert bench_record.main(["--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"),
                              "--out", str(tmp_path / "bench.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    per_workload = 1 + len(spec["end_to_end"])
    assert len(lines) == 2 * per_workload
    assert lines[0] == "desk_train: 2 pairs" and lines[per_workload] == "embed_score: 2 pairs"
    assert [line.split()[0] for line in lines[1:per_workload]] == \
        [m["name"] for m in spec["end_to_end"]]
    assert "  peak_rss_mb  median 98.5 -> 58.5 MB, change won 2, parent won 0" in lines
    assert "  op_s         median 0.5 -> 0.5 s, change won 0, parent won 0" in lines
