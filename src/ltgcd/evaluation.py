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
from scipy.optimize import linear_sum_assignment

from .clustering import seeded_kmeans
from .data import EmbeddingDataset
from .errors import ValidationError
from .model import ProjectionHead, forward, labeled_class_means
from .rng import derive_stream


@dataclass(frozen=True)
class MetricsReport:
    all_acc: float
    known_acc: float
    un1_acc: float | None     # absent when the dataset has no novel rows
    un2_acc: float | None
    n_all: int
    n_known: int
    n_novel: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("all_acc", "known_acc", "un1_acc", "un2_acc"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost one-to-one assignment; returns pi with pi[i] the column of row i."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValidationError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    pi = np.empty(cost.shape[0], dtype=np.int64)
    pi[rows] = cols
    return pi


def confusion_counts(
    y_true: np.ndarray, clusters: np.ndarray, class_ids: list, n_clusters: int
) -> np.ndarray:
    """counts[j, c] = rows in cluster j whose true label is class_ids[c],
    zero-padded to a square matrix."""
    class_pos = {cls: i for i, cls in enumerate(class_ids)}
    size = max(n_clusters, len(class_ids))
    counts = np.zeros((size, size), dtype=np.float64)
    for cluster, cls in zip(clusters, y_true):
        counts[int(cluster), class_pos[int(cls)]] += 1.0
    return counts


def match_clusters(
    y_true: np.ndarray, clusters: np.ndarray, class_ids: list, n_clusters: int
) -> dict[int, int]:
    """Optimal cluster-to-class mapping maximizing the matched count."""
    counts = confusion_counts(y_true, clusters, class_ids, n_clusters)
    pi = hungarian(-counts)
    mapping = {}
    for j in range(n_clusters):
        col = int(pi[j])
        if col < len(class_ids):
            mapping[j] = class_ids[col]
    return mapping


def matched_accuracy(y_true: np.ndarray, clusters: np.ndarray) -> float:
    """Clustering accuracy after the optimal cluster-to-class matching."""
    y_true = np.asarray(y_true, dtype=np.int64)
    clusters = np.asarray(clusters, dtype=np.int64)
    if y_true.shape != clusters.shape or y_true.size == 0:
        raise ValidationError("y_true and clusters must be equal-length and nonempty")
    class_ids = sorted(set(y_true.tolist()))
    n_clusters = int(clusters.max()) + 1
    mapping = match_clusters(y_true, clusters, class_ids, n_clusters)
    correct = sum(1 for c, t in zip(clusters, y_true) if mapping.get(int(c)) == int(t))
    return correct / y_true.size


def evaluate(head: ProjectionHead, data: EmbeddingDataset, seed: int) -> MetricsReport:
    """Score a model snapshot on every unlabeled row of the dataset."""
    rng = derive_stream(seed, "eval")
    feats = forward(head, data.points)
    known_list = sorted(data.known_classes)
    novel_list = sorted(data.unknown_classes)
    n_known_clusters = len(known_list)
    cluster_of_class = {cls: j for j, cls in enumerate(known_list)}

    anchors = {
        int(i): cluster_of_class[int(data.labels[i])] for i in data.labeled_indices
    }

    assign, _ = seeded_kmeans(
        feats,
        data.num_classes,
        rng,
        seed_centroids=labeled_class_means(feats, data.labels, data.is_labeled, known_list),
        anchors=anchors,
    )

    unlab = data.unlabeled_indices
    y_true = data.labels[unlab]
    clusters = assign[unlab]
    known_mask = np.isin(y_true, known_list)
    novel_mask = ~known_mask

    # Hungarian over novel clusters x novel classes, counted on true-novel rows.
    pred = np.full(len(unlab), -1, dtype=np.int64)
    for j, cls in enumerate(known_list):
        pred[clusters == j] = cls
    novel_cluster_rows = clusters >= n_known_clusters
    if novel_list:
        rows = novel_cluster_rows & novel_mask
        mapping = match_clusters(
            y_true[rows],
            clusters[rows] - n_known_clusters,
            novel_list,
            len(novel_list),
        ) if rows.any() else {}
        for j, cls in mapping.items():
            pred[clusters == n_known_clusters + j] = cls

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
        known_acc=known_acc if known_acc is not None else 0.0,
        un1_acc=un1_acc,
        un2_acc=un2_acc,
        n_all=len(unlab),
        n_known=n_known_rows,
        n_novel=n_novel_rows,
        seed=seed,
    )
