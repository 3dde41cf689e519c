"""Self-test of the benchmark's own code; runs in about a second.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)
"""

import json
import re
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Tracer, nearest_rank  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _nested(clock_ticks):
    """outer() calls inner() twice; the clock returns ``clock_ticks`` in turn."""
    ns = types.SimpleNamespace()

    def inner():
        return 1

    def outer():
        return ns.inner() + ns.inner()

    ns.inner, ns.outer = inner, outer
    tracer = Tracer(clock=iter(clock_ticks).__next__)
    return ns, tracer, inner, outer


def test_self_time_of_nested_calls():
    # outer 0.0-4.0 holds inner 0.5-1.25 and inner 2.0-2.5
    ns, tracer, inner, outer = _nested([0.0, 0.5, 1.25, 2.0, 2.5, 4.0])
    with tracer:
        tracer.wrap(ns, "outer", "outer")
        tracer.wrap(ns, "inner", "inner")
        assert ns.outer() == 2
    assert ns.outer is outer and ns.inner is inner and tracer.restored()
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.self_times() == [2.75, 0.75, 0.5]
    assert tracer.totals() == {"outer": (1, 2.75), "inner": (2, 1.25)}
    (root,) = tracer.roots()
    assert tracer.tree_self_sum(root) == tracer.spans[root].duration == 4.0


def test_span_closes_when_the_call_raises():
    ns, tracer, inner, outer = _nested([0.0, 1.0, 3.0, 7.0])

    def failing():
        raise ValueError("boom")

    ns.inner = failing
    with tracer:
        tracer.wrap(ns, "outer", "outer")
        tracer.wrap(ns, "inner", "inner")
        try:
            ns.outer()
        except ValueError:
            pass
        else:
            raise AssertionError("the wrapped call swallowed the exception")
    assert ns.inner is failing and tracer.restored()
    assert [(s.start, s.end) for s in tracer.spans] == [(0.0, 7.0), (1.0, 3.0)]
    assert tracer.self_times() == [5.0, 2.0]


def test_nearest_rank_leaves_twelve_of_600_beyond_p98():
    values = [float(v) for v in range(1, 601)]
    assert nearest_rank(values, 0.98) == 588.0
    assert nearest_rank(values, 0.50) == 300.0


def test_declared_names():
    spec = _spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_emitted_name_is_declared():
    spec = _spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    emitted = workloads._end_to_end(0.1, [{"train_s": 1.0}], [(0.5, 0.5, 0.5, 0.5)], 1.0)
    assert set(emitted) | {"ok_rate"} == e2e
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert set(workloads.LAYER_MAP) == set(per_layer)
    assert set(workloads.per_layer_metrics(None, {}, per_layer)) == set(per_layer)


def test_wrapped_attributes_exist():
    for module, attr, name, _ in workloads.IN_PROCESS_LAYERS + workloads.SWEEP_LAYERS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


if __name__ == "__main__":
    tests = [f for n, f in sorted(globals().items()) if n.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
