"""scripts/seed_report.py: per-cell means and paired per-seed margins."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "seed_report", Path(__file__).resolve().parent.parent / "scripts" / "seed_report.py")
seed_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_report)


def _rows(seed, known):
    """One results.csv row per trend cell; ``known`` maps a cell to its Known."""
    return [
        {"seed": float(seed), "rho": 5.0, "alpha": alpha, "beta": beta, "lambda": 1.0,
         "all": 0.8, "known": known[alpha, beta], "un1": 0.7, "un2": 0.5 + 0.1 * beta}
        for alpha, beta in ((0.0, 0.0), (0.0, 2.0), (0.0, 5.0), (1.0, 2.0))
    ]


def test_margins_are_paired_by_seed():
    rows = (_rows(0, {(0, 0): 0.9, (0, 2): 0.9, (0, 5): 0.8, (1, 2): 0.95})
            + _rows(1, {(0, 0): 0.7, (0, 2): 0.7, (0, 5): 0.7, (1, 2): 0.6}))
    report = seed_report.summarize(rows)
    assert report["seeds"] == [0, 1]
    assert list(report["cells"]) == ["alpha=0,beta=0", "alpha=0,beta=2",
                                     "alpha=0,beta=5", "alpha=1,beta=2"]
    assert report["cells"]["alpha=0,beta=0"]["known"] == pytest.approx(0.8)

    c6 = report["margins"]["c6_known_gain"]
    assert c6["per_seed"] == pytest.approx([0.05, -0.1])
    assert c6["mean"] == pytest.approx(-0.025)
    assert c6["min"] == pytest.approx(-0.1)
    assert (c6["positive"], c6["negative"]) == (1, 1)
    assert c6["sd"] == pytest.approx(0.15 / 2 ** 0.5)

    drop = report["margins"]["c5_known_drop"]
    assert drop["per_seed"] == pytest.approx([-0.1, 0.0])
    assert (drop["positive"], drop["negative"]) == (0, 1)
    assert report["margins"]["c5_un2_gain"]["per_seed"] == pytest.approx([0.2, 0.2])
    assert report["margins"]["c7_known_minus_un1"]["per_seed"] == pytest.approx([0.25, -0.1])
