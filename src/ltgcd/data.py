"""Synthetic long-tailed embedding datasets and file ingestion.

Synthetic data is a Gaussian mixture: class means drawn uniformly on a sphere
whose radius sets the separation, unit isotropic covariance per class. Known
classes contribute ``samples_per_known`` points each, unknown classes
``round_half_up(samples_per_known / rho)``. A balanced fraction of each known
class is marked labeled; everything else forms the unlabeled pool.

On-disk format: one npz of the arrays of ``NPZ_LAYOUT``, as
``write_dataset`` writes it. The known classes are not stored: as in GCD,
they are the classes of the labeled rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SplitSpec, check_setting
from .errors import DataFormatError, ValidationError


@dataclass(frozen=True)
class EmbeddingDataset:
    """Immutable collection of embedding points with a known/unknown split.

    The known classes are those of the labeled rows; every other class in
    ``[0, num_classes)`` is unknown. Labels on unlabeled rows are ground
    truth kept for evaluation only; the trainer never reads them.
    """

    points: np.ndarray            # (n, d) float64
    labels: np.ndarray            # (n,) int64 in [0, C)
    is_labeled: np.ndarray        # (n,) bool
    num_classes: int

    def __post_init__(self) -> None:
        n = self.points.shape[0]
        if self.points.ndim != 2:
            raise DataFormatError(f"points must be (n, d), got {self.points.shape}")
        if self.labels.shape != (n,) or self.is_labeled.shape != (n,):
            raise DataFormatError("labels and is_labeled must have one entry per row")
        if not 1 <= self.num_classes <= n:
            raise DataFormatError(f"num_classes must be in [1, {n}], got {self.num_classes}")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataFormatError("labels must lie in [0, C)")
        if not self.known_classes:
            raise DataFormatError("no labeled row, so no known class")
        if self.is_labeled.all():
            raise DataFormatError("no unlabeled row, so nothing to train on or score")
        for arr in (self.points, self.labels, self.is_labeled):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def known_classes(self) -> frozenset:
        return frozenset(np.unique(self.labels[self.is_labeled]).tolist())

    @property
    def unknown_classes(self) -> frozenset:
        return frozenset(range(self.num_classes)) - self.known_classes

    @property
    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.is_labeled)


def generate_mixture(spec: SplitSpec, sep: float, rng: np.random.Generator) -> EmbeddingDataset:
    """Draw a synthetic long-tailed split.

    ``sep`` is the radius of the sphere the class means live on; per-class
    covariance is the identity. Known classes are ids 0..num_known-1.
    """
    check_setting("sep", sep)
    C, d = spec.num_classes, spec.dim
    n_k = spec.samples_per_known
    n_u = spec.samples_per_unknown

    raw = rng.standard_normal((C, d))
    with np.errstate(over="ignore"):
        means = sep * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if not np.isfinite(means).all():
        raise ValidationError(f"sep is too large: the class means overflow, got {sep}")

    blocks, labels, flags = [], [], []
    for c in range(C):
        known = c < spec.num_known
        count = n_k if known else n_u
        blocks.append(means[c] + rng.standard_normal((count, d)))
        labels.append(np.full(count, c, dtype=np.int64))
        flag = np.zeros(count, dtype=bool)
        if known:
            chosen = rng.permutation(count)[:spec.n_labeled_per_known]
            flag[chosen] = True
        flags.append(flag)

    return EmbeddingDataset(
        points=np.concatenate(blocks, axis=0),
        labels=np.concatenate(labels),
        is_labeled=np.concatenate(flags),
        num_classes=C,
    )


def make_views(
    data: EmbeddingDataset,
    batch_indices: np.ndarray,
    noise_sigma: float,
    drop_prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Augment the selected rows twice: additive Gaussian noise, then each
    coordinate independently zeroed with probability ``drop_prob``. The two
    views use independent draws and come back interleaved: rows 2i and 2i+1
    are the two views of instance i. ``forward_cached`` maps them row for row
    to the unit-norm features that ``overall_loss`` takes in this layout.
    ``Hyperparams`` validates both settings. The random numbers come from
    ``draw_views``, which updates them in place here."""
    base = data.points[np.asarray(batch_indices, dtype=np.int64)]
    views = np.empty((2 * base.shape[0], base.shape[1]))
    for first_row, (view, mask) in enumerate(draw_views(rng, base.shape, drop_prob)):
        view *= noise_sigma
        view += base
        if mask is not None:
            np.putmask(view, mask < drop_prob, 0.0)
        views[first_row::2] = view
    return views


def draw_views(rng: np.random.Generator, shape: tuple[int, int],
               drop_prob: float) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The random draws of ``make_views`` for a batch of ``shape``, in the
    order it makes them: per view, a ``standard_normal`` noise array, then a
    ``random`` dropout array if ``drop_prob > 0`` (else None)."""
    return [(rng.standard_normal(shape), rng.random(shape) if drop_prob > 0.0 else None)
            for _ in range(2)]


def view_draws(rows: int, dim: int) -> tuple[int, int]:
    """At most how many random draws ``draw_views`` makes for a batch of
    ``rows`` rows of ``dim`` values, and how many values they hold: per view
    a ``standard_normal`` noise array and a ``random`` dropout array, each
    ``(rows, dim)``."""
    return 4, 4 * rows * dim


def format_cell(value) -> str:
    """The cell format of every CSV the package writes: a float is its
    shortest round-trip ``repr`` (``float.__repr__`` also prints a numpy
    float64 as a plain number), a missing value is an empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write ``header`` and then ``rows``, every cell through ``format_cell``."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_cell(v) for v in row] for row in rows)
    return path


# The arrays of a dataset npz and their dtypes; num_classes is 0-d.
NPZ_LAYOUT = {"points": np.float64, "labels": np.int64, "is_labeled": np.bool_,
              "num_classes": np.int64}


def write_dataset(data: EmbeddingDataset, out_dir: str | Path) -> Path:
    """Write ``data.npz`` into ``out_dir`` and return its path.

    The npz holds the arrays of ``NPZ_LAYOUT``, uncompressed. Its zip members
    carry a fixed date, so a dataset always gives the same bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays = (data.points, data.labels, data.is_labeled, data.num_classes)
    path = out_dir / "data.npz"
    np.savez(path, **{name: np.asarray(arr, dtype=dtype)
                      for (name, dtype), arr in zip(NPZ_LAYOUT.items(), arrays)})
    return path


def read_npz(path: Path, layout: dict) -> dict[str, np.ndarray]:
    """The arrays of the npz at ``path``, keyed by name in ``layout`` order.
    Checked in order: the file starts as a zip archive does (so np.load never
    takes it for a pickle or a bare ``.npy``), it reads as one, and it holds
    exactly the arrays of ``layout``, each a ``.npy`` in its native dtype.
    Every failure is a ``DataFormatError`` that names ``path``."""
    try:
        # np.load leaves a path's file open when the zip directory is bad
        with open(path, "rb") as fh:
            magic = fh.read(6)
            if not magic.startswith(b"PK\x03\x04"):
                kind = " (a single .npy array)" if magic == b"\x93NUMPY" else ""
                raise DataFormatError(f"{path}: not an npz archive{kind}")
            fh.seek(0)
            archive = np.load(fh, allow_pickle=False)
            if sorted(archive.files) != sorted(layout):
                raise DataFormatError(f"{path}: expected the arrays {list(layout)}, "
                                      f"got {archive.files}")
            arrays = {name: archive[name] for name in layout}
    except DataFormatError:
        raise
    except Exception as exc:   # numpy and zipfile raise many types on a malformed archive
        raise DataFormatError(f"{path}: cannot read as npz "
                              f"({type(exc).__name__}: {exc})") from None
    for name, dtype in layout.items():
        # np.load gives the raw bytes of a member that lacks the .npy magic
        if not isinstance(arrays[name], np.ndarray):
            raise DataFormatError(f"{path}: {name} is not a .npy array")
        if arrays[name].dtype != dtype:
            raise DataFormatError(f"{path}: {name} must be native {np.dtype(dtype)}, "
                                  f"got {arrays[name].dtype}")
    return arrays


def load_embeddings(path: str | Path) -> EmbeddingDataset:
    """Load the dataset npz at ``path``; validates all invariants. Every
    failure but a missing file is a ``DataFormatError`` that names ``path``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    points, labels, flags, num_classes = read_npz(path, NPZ_LAYOUT).values()
    n = points.shape[0] if points.ndim == 2 else 0
    if not (n and points.shape[1] and labels.shape == flags.shape == (n,)
            and num_classes.shape == ()):
        raise DataFormatError(f"{path}: expected shapes (n, d), (n,), (n,), () with n, d >= 1, "
                              f"got {points.shape}, {labels.shape}, {flags.shape}, "
                              f"{num_classes.shape}")
    bad_rows = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad_rows):
        raise DataFormatError(f"{path}: row {bad_rows[0]}: non-finite feature value")

    try:
        return EmbeddingDataset(points=points, labels=labels, is_labeled=flags,
                                num_classes=int(num_classes))
    except DataFormatError as exc:   # a whole-split rule, such as the class count
        raise DataFormatError(f"{path}: {exc}") from None
