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


# file/CLI spelling -> dataclass field
_KEY_ALIASES = {"lambda": "lambda_"}
_FILE_KEYS = {field: key for key, field in _KEY_ALIASES.items()}


def file_key(name: str) -> str:
    """The spelling of field ``name`` in config files, messages and output."""
    return _FILE_KEYS.get(name, name)


# The allowed range of every numeric setting: the text its error message
# gives and the test a value must pass. A float setting must also be finite.
SETTING_RULES = {
    **dict.fromkeys(("tau", "tau_p", "lr0", "rho"), ("> 0", lambda v: v > 0)),
    **dict.fromkeys(("lambda_", "alpha", "beta", "weight_decay", "noise_sigma", "sep"),
                    (">= 0", lambda v: v >= 0)),
    **dict.fromkeys(("epochs", "batch_size", "num_known", "samples_per_known", "dim", "workers"),
                    (">= 1", lambda v: v >= 1)),
    "num_classes": (">= 2", lambda v: v >= 2),
    "mu": ("in [0, 1]", lambda v: 0 <= v <= 1),
    **dict.fromkeys(("momentum", "drop_prob"), ("in [0, 1)", lambda v: 0 <= v < 1)),
    "labeled_fraction": ("in (0, 1)", lambda v: 0 < v < 1),
    "seed": ("a 64-bit unsigned integer", lambda v: 0 <= v < 2**64),
}


def check_setting(name: str, value) -> None:
    """Raise ``ValidationError`` unless ``value`` is finite (if a float) and
    in the range ``SETTING_RULES`` gives ``name``; the message names the key."""
    key = file_key(name)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {value}")
    text, ok = SETTING_RULES[name]
    if not ok(value):
        raise ValidationError(f"{key} must be {text}, got {value}")


def _check_fields(settings) -> None:
    for name, value in vars(settings).items():
        check_setting(name, value)


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
        _check_fields(self)


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
        _check_fields(self)
        if self.num_known >= self.num_classes:
            raise ValidationError(
                f"num_known must be < num_classes ({self.num_known} >= {self.num_classes})"
            )
        if self.samples_per_known >= 2**63 * self.rho:  # their float quotient may overflow
            raise ValidationError(
                f"samples_per_known/rho is 2**63 or more ({self.samples_per_known}/{self.rho})")
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
