"""Shared test helpers: independent numeric oracles and random test inputs."""

from __future__ import annotations

import io
import os
import zipfile

import numpy as np

from ltgcd.harness import _run_chunk


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


def replace_member(npz: bytes, name: str, data: bytes) -> bytes:
    """The zip archive ``npz`` with its member ``name`` holding ``data``. The
    archive is written anew, so its checksums match the new bytes."""
    with zipfile.ZipFile(io.BytesIO(npz)) as archive:
        members = {member: archive.read(member) for member in archive.namelist()}
    members[name] = data
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as archive:
        for member, member_data in members.items():
            archive.writestr(member, member_data)
    return out.getvalue()


def run_chunk_or_exit(plan, cells):
    """``_run_chunk``, except that the process exits at once on the chunk
    that holds run r0001. A process pool pickles it by name, so patched in
    for ``_run_chunk``, it runs in workers forked after the patch."""
    if "r0001" in [cell.run_id for cell in cells]:
        os._exit(1)
    return _run_chunk(plan, cells)
