"""Hyperparameter and split configuration.

Config files are flat ``key = value`` text. Keys must match the field names
of :class:`Hyperparams` and :class:`SplitSpec`; unknown keys are rejected.
The supervised-loss weight is spelled ``lambda`` in files and CSV output and
``lambda_`` in Python (keyword clash).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ValidationError


def round_half_up(x: float) -> int:
    """Round to nearest integer with .5 going up (never banker's rounding)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Hyperparams:
    """Training hyperparameters; defaults are the desk-scale operating point."""

    tau: float = 0.1          # contrastive temperature
    tau_p: float = 0.1        # prototype softmax temperature
    lambda_: float = 1.0      # supervised contrastive weight
    alpha: float = 1.0        # class-prior alignment weight
    beta: float = 2.0         # uniform reweighting weight
    mu: float = 0.99          # class-prior EMA momentum
    lr0: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 60
    batch_size: int = 256
    seed: int = 0
    noise_sigma: float = 0.1  # view augmentation: additive Gaussian noise
    drop_prob: float = 0.1    # view augmentation: per-coordinate dropout

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValidationError(f"tau must be > 0, got {self.tau}")
        if not self.tau_p > 0:
            raise ValidationError(f"tau_p must be > 0, got {self.tau_p}")
        for name in ("lambda_", "alpha", "beta", "weight_decay"):
            value = getattr(self, name)
            if not value >= 0:
                key = "lambda" if name == "lambda_" else name
                raise ValidationError(f"{key} must be >= 0, got {value}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValidationError(f"mu must be in [0, 1], got {self.mu}")
        if not self.lr0 > 0:
            raise ValidationError(f"lr0 must be > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not self.noise_sigma >= 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValidationError(f"drop_prob must be in [0, 1), got {self.drop_prob}")


@dataclass(frozen=True)
class SplitSpec:
    """Shape of a synthetic split: class counts, imbalance, labeling."""

    num_classes: int = 20
    num_known: int = 10
    samples_per_known: int = 200
    rho: float = 5.0            # imbalance factor n_k / n_u
    labeled_fraction: float = 0.5
    dim: int = 64

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_known < 1:
            raise ValidationError(f"num_known must be >= 1, got {self.num_known}")
        if self.num_known >= self.num_classes:
            raise ValidationError(
                f"num_known must be < num_classes ({self.num_known} >= {self.num_classes})"
            )
        if self.samples_per_known < 1:
            raise ValidationError(
                f"samples_per_known must be >= 1, got {self.samples_per_known}"
            )
        if not self.rho > 0:
            raise ValidationError(f"rho must be > 0, got {self.rho}")
        if not 0.0 < self.labeled_fraction < 1.0:
            raise ValidationError(
                f"labeled_fraction must be in (0, 1), got {self.labeled_fraction}"
            )
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if self.samples_per_unknown < 1:
            raise ValidationError(
                f"samples_per_known/rho rounds to 0 samples per unknown class "
                f"({self.samples_per_known}/{self.rho})"
            )
        if self.n_labeled_per_known < 1:
            raise ValidationError(
                f"samples_per_known * labeled_fraction rounds to 0 labeled rows per known "
                f"class ({self.samples_per_known} * {self.labeled_fraction})"
            )

    @property
    def samples_per_unknown(self) -> int:
        return round_half_up(self.samples_per_known / self.rho)

    @property
    def n_labeled_per_known(self) -> int:
        """The unlabeled share of a known class is rounded half up; the rest is labeled."""
        return self.samples_per_known - round_half_up(
            self.samples_per_known * (1.0 - self.labeled_fraction))


_HP_FIELDS = {f.name for f in fields(Hyperparams)}
_SPLIT_FIELDS = {f.name for f in fields(SplitSpec)}
CONFIG_KEYS = _HP_FIELDS | _SPLIT_FIELDS
# annotations are strings under ``from __future__ import annotations``
_INT_KEYS = {f.name for f in fields(Hyperparams) + fields(SplitSpec) if f.type == "int"}

# file/CLI spelling -> dataclass field
_KEY_ALIASES = {"lambda": "lambda_"}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key=value text into a {field_name: value} dict.

    Blank lines and lines starting with ``#`` or ``;`` are ignored. Unknown
    keys and unparseable values raise :class:`ValidationError`.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        name = _KEY_ALIASES.get(key, key)
        if name not in CONFIG_KEYS:
            raise ValidationError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            value = int(rhs) if name in _INT_KEYS else float(rhs)
        except ValueError:
            kind = "an integer" if name in _INT_KEYS else "a number"
            raise ValidationError(
                f"{source}:{lineno}: value for {key!r} must be {kind}, got {rhs!r}"
            ) from None
        values[name] = value
    return values


def read_config_file(path: str | Path) -> dict:
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))


def build_params(values: dict) -> tuple[Hyperparams, SplitSpec]:
    """Split a merged dict of config keys (as :func:`parse_config_text`
    returns them) into validated Hyperparams and SplitSpec."""
    hp_kwargs = {k: v for k, v in values.items() if k in _HP_FIELDS}
    split_kwargs = {k: v for k, v in values.items() if k in _SPLIT_FIELDS}
    return Hyperparams(**hp_kwargs), SplitSpec(**split_kwargs)
