"""Cosine k-means with optional seed centroids and anchored assignments.

Points and centroids are unit-norm; similarity is the dot product. Seeded
clusters let labeled classes keep fixed identities, anchored points are
pinned to their cluster but still pull its centroid.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MAX_ITER = 300


def kmeans_pp_extend(
    points: np.ndarray,
    existing: np.ndarray | None,
    k_new: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick ``k_new`` rows of ``points`` by D^2 sampling given existing centers.

    With no existing centers the first pick is uniform. Dissimilarity is
    ``1 - cos``; degenerate all-zero weights fall back to uniform picks.
    """
    n = points.shape[0]
    if k_new > n:
        raise ValidationError(f"cannot seed {k_new} centroids from {n} points")
    chosen: list[int] = []
    if existing is not None and len(existing):
        best_sim = (points @ existing.T).max(axis=1)
    else:
        best_sim = None

    for _ in range(k_new):
        if best_sim is None:
            idx = int(rng.integers(n))
        else:
            weights = np.clip(1.0 - best_sim, 0.0, None)
            total = weights.sum()
            if total <= 0.0:
                idx = int(rng.integers(n))
            else:
                idx = int(rng.choice(n, p=weights / total))
        chosen.append(idx)
        sim = points @ points[idx]
        best_sim = sim if best_sim is None else np.maximum(best_sim, sim)
    return points[np.asarray(chosen, dtype=np.int64)].copy()


def seeded_kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    seed_centroids: np.ndarray | None = None,
    anchors: dict[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations over unit-norm points with cosine similarity.

    Clusters ``0..len(seed_centroids)-1`` start from the given centroids;
    the rest are k-means++ initialized. ``anchors`` maps point index to a
    fixed cluster id. Stops when assignments repeat or after ``_MAX_ITER`` rounds.
    An emptied cluster is re-seeded from the point farthest from its own
    centroid.

    Returns ``(assignments, centroids)``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")

    if seed_centroids is not None and len(seed_centroids):
        seeds = np.asarray(seed_centroids, dtype=np.float64)
        if seeds.shape[0] > k:
            raise ValidationError("more seed centroids than clusters")
        extra = kmeans_pp_extend(points, seeds, k - seeds.shape[0], rng)
        centroids = np.vstack([seeds, extra]) if len(extra) else seeds.copy()
    else:
        centroids = kmeans_pp_extend(points, None, k, rng)

    if anchors:
        anchor_idx = np.asarray(sorted(anchors), dtype=np.int64)
        anchor_cluster = np.asarray([anchors[i] for i in anchor_idx.tolist()], dtype=np.int64)
        if anchor_cluster.min() < 0 or anchor_cluster.max() >= k:
            raise ValidationError("anchor cluster id out of range")
        free_mask = np.ones(n, dtype=bool)
        free_mask[anchor_idx] = False
    else:
        anchor_idx = np.empty(0, dtype=np.int64)
        anchor_cluster = np.empty(0, dtype=np.int64)
        free_mask = np.ones(n, dtype=bool)

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(_MAX_ITER):
        sims = points @ centroids.T
        new_assign = np.argmax(sims, axis=1)
        new_assign[anchor_idx] = anchor_cluster

        counts = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            candidates = np.flatnonzero(free_mask & (counts[new_assign] > 1))
            if not len(candidates):
                continue
            own_sim = sims[candidates, new_assign[candidates]]
            thief = candidates[int(np.argmin(own_sim))]
            counts[new_assign[thief]] -= 1
            new_assign[thief] = empty
            counts[empty] = 1
            centroids[empty] = points[thief]

        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

        for c in range(k):
            members = points[assign == c]
            if not len(members):
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 1e-12:
                centroids[c] = mean / norm

    return assign, centroids
