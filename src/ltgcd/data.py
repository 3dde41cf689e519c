"""Synthetic long-tailed embedding datasets and file ingestion.

Synthetic data is a Gaussian mixture: class means drawn uniformly on a sphere
whose radius sets the separation, unit isotropic covariance per class. Known
classes contribute ``samples_per_known`` points each, unknown classes
``round_half_up(samples_per_known / rho)``. A balanced fraction of each known
class is marked labeled; everything else forms the unlabeled pool.

On-disk format: a CSV with header ``id,label,is_labeled,f0,...,f{d-1}``,
unquoted numeric cells and LF or CRLF line ends, plus a JSON manifest
``{"data": path, "C": int, "d": int, "known_classes": [ints]}``. The writer
and the loader format and parse the rows in blocks, on every CPU the process
may use; the bytes and arrays are those of a one-CPU run.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import re
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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


# A block of dataset rows holds about this many feature cells, so that a
# block costs about the same to format or parse at any d.
BLOCK_CELLS = 2**15


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_pool_map(fn, args_iter, workers: int):
    """Yield ``fn(*args)`` for each ``args`` of ``args_iter``, in order.

    With two or more items and two or more ``workers``, the calls run on
    that many processes, at most two per worker queued or running, so
    ``args_iter`` is drawn lazily; a call frees its slot when it ends, so a
    slow call idles no other worker. Otherwise they run in this process. A
    call's exception is raised in its turn, after every earlier result.
    """
    args_iter = iter(args_iter)
    head = list(itertools.islice(args_iter, 2))
    if len(head) < 2 or workers < 2:
        yield from itertools.starmap(fn, itertools.chain(head, args_iter))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending, running = deque(), set()
        for args in itertools.chain(head, args_iter):
            future = pool.submit(fn, *args)
            pending.append(future)
            running.add(future)
            if len(running) == 2 * workers:
                running = wait(running, return_when=FIRST_COMPLETED).not_done
            while pending and pending[0].done():
                yield pending.popleft().result()
        for future in pending:
            yield future.result()


def _format_block(first_id: int, points: np.ndarray, labels: np.ndarray,
                  flags: np.ndarray) -> str:
    """The CSV lines of consecutive rows, the first of which has id ``first_id``."""
    return "".join(
        f"{i},{label},{int(flag)},{','.join(map(float.__repr__, row))}\r\n"
        for i, label, flag, row in zip(itertools.count(first_id), labels.tolist(),
                                        flags.tolist(), points.tolist())
    )


def write_dataset(data: EmbeddingDataset, out_dir: str | Path) -> Path:
    """Write ``data.csv`` plus ``data.manifest.json``; returns the manifest path.

    The CSV has the bytes ``write_csv`` would give it (CRLF line ends, floats
    by ``format_cell``'s rule); it is written one joined line per row, since
    its cells are numbers and need no quoting, and its rows are formatted in
    blocks by ``_format_block``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "data.csv"
    manifest_path = out_dir / "data.manifest.json"

    header = ["id", "label", "is_labeled"] + [f"f{j}" for j in range(data.dim)]
    rows = max(1, BLOCK_CELLS // data.dim)
    blocks = ((start, data.points[start:start + rows], data.labels[start:start + rows],
               data.is_labeled[start:start + rows]) for start in range(0, data.n, rows))
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for text in ordered_pool_map(_format_block, blocks, _cpus()):
            fh.write(text)

    manifest = {
        "data": csv_path.name,
        "C": data.num_classes,
        "d": data.dim,
        "known_classes": sorted(data.known_classes),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


# The text of a label or is_labeled cell; ``int()`` alone would also take
# ``1_0``, surrounding spaces and non-ASCII digits.
_PLAIN_INT = re.compile(r"-?[0-9]+")


def _parse_block(data_path: Path, first_line: int, lines: list[str], C: int, d: int,
                 known: frozenset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse consecutive data lines of ``data_path``, the first of which is
    line ``first_line``: returns their ``(points, labels, flags)``.

    np.loadtxt parses the features in C. It converts each line it pulls from
    ``feature_text`` before it pulls the next, so on a parse error ``lineno``
    is the line at fault. A byte above 127 arrives as a lone surrogate that
    fails its line's parse.

    The first bad line of the block is the one reported, whatever is wrong
    with it: a feature that parses to inf or NaN (``nan``, ``inf``, or a
    literal such as ``1e999`` that overflows) or a line that does not parse.
    Blocks report in file order, so the first bad line of the file wins.
    """
    labels, flags = [], []
    lineno = first_line

    def feature_text():
        """Check each line's field count and integer fields, keep its label
        and flag, and yield its feature text."""
        nonlocal lineno
        for lineno, line in enumerate(lines, start=first_line):
            if line.count(",") != d + 2:
                fields = 0 if line == "\n" else line.count(",") + 1
                raise DataFormatError(f"{data_path}:{lineno}: expected {3 + d} fields, got {fields}")
            _, label, flag, feats = line.split(",", 3)
            if not (_PLAIN_INT.fullmatch(label) and _PLAIN_INT.fullmatch(flag)):
                raise DataFormatError(f"{data_path}:{lineno}: malformed row "
                                      "(label and is_labeled must be plain integers)")
            label, flag = int(label), int(flag)
            if flag not in (0, 1):
                raise DataFormatError(f"{data_path}:{lineno}: is_labeled must be 0 or 1")
            if label < 0 or label >= C:
                raise DataFormatError(f"{data_path}:{lineno}: class id {label} >= C ({C})")
            if flag == 1 and label not in known:
                raise DataFormatError(f"{data_path}:{lineno}: labeled unknown class {label}")
            if not feats.strip():
                # np.loadtxt would skip the blank text and drop the row
                raise DataFormatError(f"{data_path}:{lineno}: malformed row (empty feature)")
            labels.append(label)
            flags.append(flag == 1)
            yield feats

    def parse(text):
        return np.loadtxt(text, dtype=np.float64, delimiter=",", comments=None, ndmin=2)

    def check_finite(points):
        bad_rows = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if len(bad_rows):
            raise DataFormatError(f"{data_path}:{first_line + bad_rows[0]}: "
                                  "non-finite feature value")

    try:
        points = parse(feature_text())
    except (ValueError, DataFormatError) as exc:
        # the lines before ``lineno`` parsed; a non-finite value there comes first
        if lineno > first_line:
            check_finite(parse(line.split(",", 3)[3] for line in lines[:lineno - first_line]))
        if isinstance(exc, DataFormatError):
            raise
        cause = str(exc).split(" at row")[0]
        raise DataFormatError(f"{data_path}:{lineno}: malformed row ({cause})") from None
    check_finite(points)
    return points, np.asarray(labels, dtype=np.int64), np.asarray(flags, dtype=bool)


def load_embeddings(manifest_path: str | Path) -> EmbeddingDataset:
    """Load a dataset described by a JSON manifest; validates all invariants."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
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

    expected = ["id", "label", "is_labeled"] + [f"f{j}" for j in range(d)]
    rows = max(1, BLOCK_CELLS // d)
    # Universal newlines read LF and CRLF files alike. The cells are ASCII; a
    # byte above 127 decodes to a lone surrogate that ``_parse_block`` rejects
    # with its line (a strict decode would fail a whole read-ahead block, not
    # one line). The lines are read lazily, one block at a time.
    with open(data_path, encoding="ascii", errors="surrogateescape") as fh:
        if fh.readline().rstrip("\n").split(",") != expected:
            raise DataFormatError(f"{data_path}: bad header, expected {expected[:4]}...")
        blocks = ((data_path, 2 + k * rows, block, C, d, known) for k, block in
                  enumerate(iter(lambda: list(itertools.islice(fh, rows)), [])))
        parts = list(ordered_pool_map(_parse_block, blocks, _cpus()))
    if not parts:
        raise DataFormatError(f"{data_path}: no data rows")
    points, labels, flags = (np.concatenate(arrays) for arrays in zip(*parts))

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
