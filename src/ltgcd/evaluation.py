"""Clustering accuracy metrics: overall, known, unknown-aware, unknown-agnostic.

The agnostic pass clusters every row jointly (labeled rows anchored to their
class clusters, known centroids seeded from labeled means) and scores the
unlabeled rows; novel clusters are matched to novel classes by optimal
assignment. The aware pass isolates the true-novel rows, clusters them
unseeded, and matches over the full confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import seeded_kmeans
from .data import EmbeddingDataset
from .errors import ValidationError
from .model import ProjectionHead, forward, labeled_class_means
from .rng import derive_stream


# the column name of each accuracy in every CSV; ``<name>_acc`` is its field
METRIC_NAMES = ("all", "known", "un1", "un2")


@dataclass(frozen=True)
class MetricsReport:
    all_acc: float
    known_acc: float | None   # absent when no unlabeled row is of a known class
    un1_acc: float | None     # absent when the dataset has no novel rows
    un2_acc: float | None
    n_all: int
    n_known: int
    n_novel: int
    seed: int

    def __post_init__(self) -> None:
        for name, v in self.accuracies().items():
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name}_acc must be in [0, 1], got {v}")

    def accuracies(self) -> dict[str, float | None]:
        """The four accuracies by column name, in ``METRIC_NAMES`` order."""
        return {name: getattr(self, f"{name}_acc") for name in METRIC_NAMES}


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost one-to-one assignment; returns pi with pi[i] the column of row i.

    Shortest augmenting paths on dual potentials (Jonker and Volgenant,
    Computing 1987). The potentials start at the column minima plus the row
    minima of what is left, so every row has a tight (zero reduced cost)
    column; each row takes its first free tight column, and every row left
    over is matched by one Dijkstra search over the columns. On a matrix
    full of ties, such as negated counts, the greedy start leaves few rows
    for the searches.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValidationError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix must be finite")
    n = cost.shape[0]
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return col4row
    v = cost.min(axis=0)
    reduced = cost - v
    u = reduced.min(axis=1)
    reduced -= u[:, None]
    for i in range(n):
        tight = (reduced[i] == 0.0) & (row4col < 0)
        if tight.any():
            j = int(np.argmax(tight))
            col4row[i], row4col[j] = j, i
    for i in np.flatnonzero(col4row < 0):
        _augment(cost, u, v, col4row, row4col, int(i))
    return col4row


def _augment(cost: np.ndarray, u: np.ndarray, v: np.ndarray, col4row: np.ndarray,
             row4col: np.ndarray, start: int) -> None:
    """Match the free row ``start`` along a shortest augmenting path in the
    reduced costs ``cost - u - v``, updating the matching and the potentials
    in place so that reduced costs stay >= 0 and matched pairs stay tight."""
    n = cost.shape[0]
    shortest = np.full(n, np.inf)     # path cost from ``start`` to each column
    path = np.full(n, -1, dtype=np.int64)   # the row before each column on it
    scanned = np.zeros(n, dtype=bool)
    min_val, i = 0.0, start
    while True:
        r = min_val + cost[i] - u[i] - v
        better = ~scanned & (r < shortest)
        shortest[better] = r[better]
        path[better] = i
        open_cost = np.where(scanned, np.inf, shortest)
        min_val = open_cost.min()
        ties = open_cost == min_val
        free = ties & (row4col < 0)
        # among equally short columns a free one ends the search soonest
        j = int(np.argmax(free if free.any() else ties))
        scanned[j] = True
        if row4col[j] < 0:
            break
        i = int(row4col[j])

    cols = np.flatnonzero(scanned)
    delta = min_val - shortest[cols]
    v[cols] -= delta
    rows = row4col[cols]
    keep = rows >= 0   # every scanned column but j is matched to a scanned row
    u[rows[keep]] += delta[keep]
    u[start] += min_val
    while True:   # flip the path back from the free column j to ``start``
        i = int(path[j])
        row4col[j] = i
        col4row[i], j = j, col4row[i]
        if i == start:
            break


def confusion_counts(
    y_true: np.ndarray, clusters: np.ndarray, class_ids: list | np.ndarray, n_clusters: int
) -> np.ndarray:
    """counts[j, c] = rows in cluster j whose true label is class_ids[c],
    zero-padded to a square matrix."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    class_pos = np.zeros(int(class_ids.max()) + 1, dtype=np.int64)
    class_pos[class_ids] = np.arange(len(class_ids))
    size = max(n_clusters, len(class_ids))
    cols = class_pos[np.asarray(y_true, dtype=np.int64)]
    cells = np.asarray(clusters, dtype=np.int64) * size + cols
    return np.bincount(cells, minlength=size * size).reshape(size, size).astype(np.float64)


def matched_accuracy(y_true: np.ndarray, clusters: np.ndarray) -> float:
    """Clustering accuracy after the optimal cluster-to-class matching."""
    y_true = np.asarray(y_true, dtype=np.int64)
    clusters = np.asarray(clusters, dtype=np.int64)
    if y_true.shape != clusters.shape or y_true.size == 0:
        raise ValidationError("y_true and clusters must be equal-length and nonempty")
    counts = confusion_counts(y_true, clusters, np.unique(y_true), int(clusters.max()) + 1)
    pi = hungarian(-counts)
    # the zero padding adds nothing to the matched count
    return int(counts[np.arange(len(pi)), pi].sum()) / y_true.size


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate(head: ProjectionHead, data: EmbeddingDataset, seed: int) -> MetricsReport:
    """Score a model snapshot on every unlabeled row of the dataset.

    numpy's floating-point warnings are off: a feature norm that overflows
    is named by ``forward``'s row check, which stops the scoring."""
    rng = derive_stream(seed, "eval")
    feats = forward(head, data.points)
    known_list = sorted(data.known_classes)
    novel_list = sorted(data.unknown_classes)
    n_known_clusters = len(known_list)

    assign, _ = seeded_kmeans(
        feats,
        data.num_classes,
        rng,
        seed_centroids=labeled_class_means(feats, data.labels, data.is_labeled),
        anchors=np.where(data.is_labeled, np.searchsorted(known_list, data.labels), -1),
    )

    unlab = data.unlabeled_indices
    y_true = data.labels[unlab]
    clusters = assign[unlab]
    known_mask = np.isin(y_true, known_list)
    novel_mask = ~known_mask

    # Hungarian over novel clusters x novel classes, counted on true-novel rows;
    # the matrix is square, so every novel cluster gets a class, unless no
    # true-novel row lands in one and they all predict -1.
    class_of_cluster = np.full(data.num_classes, -1, dtype=np.int64)
    class_of_cluster[:n_known_clusters] = known_list
    rows = (clusters >= n_known_clusters) & novel_mask
    if rows.any():
        counts = confusion_counts(
            y_true[rows], clusters[rows] - n_known_clusters, novel_list, len(novel_list)
        )
        class_of_cluster[n_known_clusters:] = np.asarray(novel_list)[hungarian(-counts)]
    pred = class_of_cluster[clusters]

    hits = pred == y_true
    all_acc = float(hits.mean())
    n_known_rows = int(known_mask.sum())
    n_novel_rows = int(novel_mask.sum())
    known_acc = float(hits[known_mask].mean()) if n_known_rows else None
    un2_acc = float(hits[novel_mask].mean()) if n_novel_rows else None

    un1_acc = None
    if n_novel_rows:
        novel_feats = feats[unlab[novel_mask]]
        k = min(len(novel_list), novel_feats.shape[0])
        aware_assign, _ = seeded_kmeans(novel_feats, k, rng)
        un1_acc = matched_accuracy(y_true[novel_mask], aware_assign)

    return MetricsReport(
        all_acc=all_acc,
        known_acc=known_acc,
        un1_acc=un1_acc,
        un2_acc=un2_acc,
        n_all=len(unlab),
        n_known=n_known_rows,
        n_novel=n_novel_rows,
        seed=seed,
    )
