"""Synthetic long-tailed embedding datasets and file ingestion.

Synthetic data is a Gaussian mixture: class means drawn uniformly on a sphere
whose radius sets the separation, unit isotropic covariance per class. Known
classes contribute ``samples_per_known`` points each, unknown classes
``round_half_up(samples_per_known / rho)``. A balanced fraction of each known
class is marked labeled; everything else forms the unlabeled pool.

On-disk format: a JSON manifest ``{"data": path, "C": int, "d": int,
"known_classes": [ints]}`` naming the data file, an npz of the arrays of
``NPZ_LAYOUT`` as ``write_dataset`` writes it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SplitSpec, check_setting
from .errors import DataFormatError


@dataclass(frozen=True)
class EmbeddingDataset:
    """Immutable collection of embedding points with a known/unknown split.

    Labels on unlabeled rows are ground truth kept for evaluation only; the
    trainer never reads them.
    """

    points: np.ndarray            # (n, d) float64
    labels: np.ndarray            # (n,) int64 in [0, C)
    is_labeled: np.ndarray        # (n,) bool
    known_classes: frozenset
    unknown_classes: frozenset
    num_classes: int
    dim: int

    def __post_init__(self) -> None:
        n = self.points.shape[0]
        if self.points.ndim != 2 or self.points.shape[1] != self.dim:
            raise DataFormatError(
                f"points must be (n, {self.dim}), got {self.points.shape}"
            )
        if self.labels.shape != (n,) or self.is_labeled.shape != (n,):
            raise DataFormatError("labels and is_labeled must have one entry per row")
        all_classes = set(range(self.num_classes))
        if self.known_classes | self.unknown_classes != all_classes or (
            self.known_classes & self.unknown_classes
        ):
            raise DataFormatError(
                "known and unknown classes must partition 0..C-1 disjointly"
            )
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataFormatError("labels must lie in [0, C)")
        labeled_labels = set(np.unique(self.labels[self.is_labeled]).tolist())
        bad = labeled_labels - self.known_classes
        if bad:
            raise DataFormatError(f"labeled unknown class: {sorted(bad)}")
        if labeled_labels != set(self.known_classes):
            missing = set(self.known_classes) - labeled_labels
            raise DataFormatError(f"known classes with no labeled row: {sorted(missing)}")
        for arr in (self.points, self.labels, self.is_labeled):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

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
    means = sep * raw / np.linalg.norm(raw, axis=1, keepdims=True)

    known = frozenset(range(spec.num_known))
    unknown = frozenset(range(spec.num_known, C))

    blocks, labels, flags = [], [], []
    for c in range(C):
        count = n_k if c in known else n_u
        blocks.append(means[c] + rng.standard_normal((count, d)))
        labels.append(np.full(count, c, dtype=np.int64))
        flag = np.zeros(count, dtype=bool)
        if c in known:
            chosen = rng.permutation(count)[:spec.n_labeled_per_known]
            flag[chosen] = True
        flags.append(flag)

    return EmbeddingDataset(
        points=np.concatenate(blocks, axis=0),
        labels=np.concatenate(labels),
        is_labeled=np.concatenate(flags),
        known_classes=known,
        unknown_classes=unknown,
        num_classes=C,
        dim=d,
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
    views use independent draws and come back interleaved as in
    ``BatchViews``: rows 2i and 2i+1 are the two views of instance i.
    ``Hyperparams`` validates both settings."""
    base = data.points[np.asarray(batch_indices, dtype=np.int64)]
    views = np.empty((2 * base.shape[0], base.shape[1]))
    for first_row in (0, 1):
        view = rng.standard_normal(base.shape)
        view *= noise_sigma
        view += base
        if drop_prob > 0.0:
            np.putmask(view, rng.random(base.shape) < drop_prob, 0.0)
        views[first_row::2] = view
    return views


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


# The arrays of a dataset npz and their dtypes.
NPZ_LAYOUT = {"points": np.float64, "labels": np.int64, "is_labeled": np.bool_}


def write_dataset(data: EmbeddingDataset, out_dir: str | Path) -> Path:
    """Write ``data.npz`` plus ``data.manifest.json``; returns the manifest path.

    The npz holds the arrays of ``NPZ_LAYOUT``, uncompressed. Its zip members
    carry a fixed date, so a dataset always gives the same bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays = (data.points, data.labels, data.is_labeled)
    np.savez(out_dir / "data.npz", **{name: arr.astype(dtype, copy=False)
                                      for (name, dtype), arr in zip(NPZ_LAYOUT.items(), arrays)})
    manifest = {"data": "data.npz", "C": data.num_classes, "d": data.dim,
                "known_classes": sorted(data.known_classes)}
    manifest_path = out_dir / "data.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def read_npz(path: Path, layout: dict) -> dict[str, np.ndarray]:
    """The arrays of the npz at ``path``, keyed by name in ``layout`` order.
    Checked in order: the file starts as a zip archive does (so np.load never
    takes it for a pickle or a bare ``.npy``), it reads as one, and it holds
    exactly the arrays of ``layout``, in their native dtypes. Every failure
    is a ``DataFormatError`` that names ``path``."""
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
        if arrays[name].dtype != dtype:
            raise DataFormatError(f"{path}: {name} must be native {np.dtype(dtype)}, "
                                  f"got {arrays[name].dtype}")
    return arrays


def load_embeddings(manifest_path: str | Path) -> EmbeddingDataset:
    """Load a dataset described by a JSON manifest; validates all invariants."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if type(manifest) is not dict:
        raise DataFormatError(f"{manifest_path}: expected a JSON object, "
                              f"got {type(manifest).__name__}")
    for key in ("data", "C", "d", "known_classes"):
        if key not in manifest:
            raise DataFormatError(f"{manifest_path}: manifest missing key {key!r}")

    # JSON integers only: int() would truncate 2.7 and take true or "3"
    for key in ("C", "d"):
        if type(manifest[key]) is not int:
            raise DataFormatError(f"{manifest_path}: {key} must be an integer, got {manifest[key]!r}")
    known = manifest["known_classes"]
    if type(known) is not list or any(type(c) is not int for c in known):
        raise DataFormatError(f"{manifest_path}: known_classes must be a list of integers, "
                              f"got {known!r}")
    if type(manifest["data"]) is not str:
        raise DataFormatError(f"{manifest_path}: data must be a string, "
                              f"got {manifest['data']!r}")
    if not manifest["data"].endswith(".npz"):
        raise DataFormatError(f"{manifest_path}: data must name an .npz file, "
                              f"got {manifest['data']!r}")
    C, d, known = manifest["C"], manifest["d"], frozenset(known)
    if d < 1:
        raise DataFormatError(f"{manifest_path}: d must be >= 1, got {d}")
    if not known or any(c < 0 or c >= C for c in known):
        raise DataFormatError(f"{manifest_path}: known_classes must be a nonempty subset of 0..C-1")
    data_path = Path(manifest["data"])
    if not data_path.is_absolute():
        data_path = manifest_path.parent / data_path
    if not data_path.exists():
        raise FileNotFoundError(f"data file not found: {data_path}")

    points, labels, flags = read_npz(data_path, NPZ_LAYOUT).values()
    n = points.shape[0] if points.ndim == 2 else 0
    if not (n and points.shape[1] == d and labels.shape == flags.shape == (n,)):
        raise DataFormatError(f"{data_path}: expected shapes (n, {d}), (n,), (n,) with "
                              f"n >= 1, got {points.shape}, {labels.shape}, {flags.shape}")
    bad_rows = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad_rows):
        raise DataFormatError(f"{data_path}: row {bad_rows[0]}: non-finite feature value")

    try:
        return EmbeddingDataset(
            points=points,
            labels=labels,
            is_labeled=flags,
            known_classes=known,
            unknown_classes=frozenset(range(C)) - known,
            num_classes=C,
            dim=d,
        )
    except DataFormatError as exc:   # a whole-split rule, such as a known class's labeled row
        raise DataFormatError(f"{manifest_path}: {exc}") from None
