"""Moving-average estimate of the unlabeled class distribution.

The estimate starts uniform and is refreshed once per epoch from the hard
histogram of current model predictions on the unlabeled set:
``r <- mu * r + (1 - mu) * z``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_SIMPLEX_TOL = 1e-6


@dataclass(frozen=True)
class ClassPrior:
    r: np.ndarray          # (C,) on the probability simplex
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu <= 1.0:
            raise ValidationError(f"mu must be in [0, 1], got {self.mu}")
        _check_simplex(self.r, "r")
        self.r.setflags(write=False)


def _check_simplex(v: np.ndarray, name: str) -> None:
    if v.ndim != 1:
        raise ValidationError(f"{name} must be a vector")
    if np.any(v < 0):
        raise ValidationError(f"{name} has negative entries")
    total = float(v.sum())
    if abs(total - 1.0) > _SIMPLEX_TOL:
        raise ValidationError(f"{name} sums to {total}, not 1")


def init_uniform(num_classes: int, mu: float = 0.99) -> ClassPrior:
    """Uniform prior over ``num_classes`` classes."""
    if num_classes < 2:
        raise ValidationError(f"need at least 2 classes, got {num_classes}")
    return ClassPrior(r=np.full(num_classes, 1.0 / num_classes), mu=mu)


def hard_histogram(probs: np.ndarray) -> np.ndarray:
    """Fraction of rows whose argmax lands on each class.

    Ties break toward the lowest class index (argmax convention).
    """
    probs = np.asarray(probs)
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise ValidationError("probs must be a nonempty (n, C) matrix")
    winners = np.argmax(probs, axis=1)
    counts = np.bincount(winners, minlength=probs.shape[1]).astype(np.float64)
    return counts / counts.sum()


def ema_update(prior: ClassPrior, z: np.ndarray) -> ClassPrior:
    """One moving-average step toward the histogram ``z``."""
    z = np.asarray(z, dtype=np.float64)
    _check_simplex(z, "z")
    if z.shape != prior.r.shape:
        raise ValidationError(f"z has {z.shape[0]} classes, prior has {prior.r.shape[0]}")
    r_new = prior.mu * prior.r + (1.0 - prior.mu) * z
    return ClassPrior(r=r_new, mu=prior.mu)
