"""Shared test helpers: independent numeric oracles, tolerances, and a CSV dataset writer."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative error between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def finite_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, entry by entry."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        flat_grad[i] = (fp - fm) / (2.0 * h)
    return grad


def unit_rows(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Random rows on the unit sphere."""
    raw = rng.standard_normal((n, p))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def random_orthogonal(rng: np.random.Generator, p: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def random_simplex(rng: np.random.Generator, c: int) -> np.ndarray:
    raw = rng.random(c) + 1e-6
    return raw / raw.sum()


def write_csv_dataset(data, out_dir) -> Path:
    """Write the ``EmbeddingDataset`` ``data`` as ``data.csv`` plus
    ``data.manifest.json`` in ``out_dir``; returns the manifest path.

    The CSV has CRLF line ends and each float as its shortest round-trip
    ``repr``, so every float64 survives the loader's text parser bit for bit.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(["id", "label", "is_labeled"] + [f"f{j}" for j in range(data.dim)])]
    lines += [f"{i},{label},{int(flag)},{','.join(map(float.__repr__, row))}"
              for i, (label, flag, row) in enumerate(zip(data.labels.tolist(),
                                                         data.is_labeled.tolist(),
                                                         data.points.tolist()))]
    (out_dir / "data.csv").write_bytes("".join(line + "\r\n" for line in lines).encode("ascii"))
    manifest = {"data": "data.csv", "C": data.num_classes, "d": data.dim,
                "known_classes": sorted(data.known_classes)}
    (out_dir / "data.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out_dir / "data.manifest.json"
