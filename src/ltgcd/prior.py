"""Moving-average estimate of the unlabeled class distribution.

The estimate is a plain (C,) float64 vector ``r`` that starts uniform and is
refreshed once per epoch from the hard histogram of current model
predictions on the unlabeled set: ``r <- mu * r + (1 - mu) * z``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_SIMPLEX_TOL = 1e-6


def check_simplex(v: np.ndarray, name: str) -> None:
    if v.ndim != 1:
        raise ValidationError(f"{name} must be a vector")
    if np.any(v < 0):
        raise ValidationError(f"{name} has negative entries")
    total = float(v.sum())
    if abs(total - 1.0) > _SIMPLEX_TOL:
        raise ValidationError(f"{name} sums to {total}, not 1")


def hard_histogram(assignments: np.ndarray, num_classes: int) -> np.ndarray:
    """Fraction of ``assignments`` (class indices) landing on each class."""
    assignments = np.asarray(assignments)
    if assignments.ndim != 1 or assignments.size < 1:
        raise ValidationError("assignments must be a nonempty vector")
    counts = np.bincount(assignments, minlength=num_classes).astype(np.float64)
    return counts / counts.sum()


def ema_update(r: np.ndarray, z: np.ndarray, mu: float) -> np.ndarray:
    """One moving-average step of ``r`` toward the histogram ``z``."""
    z = np.asarray(z, dtype=np.float64)
    check_simplex(z, "z")
    if z.shape != r.shape:
        raise ValidationError(f"z has {z.shape[0]} classes, r has {r.shape[0]}")
    return mu * r + (1.0 - mu) * z
