"""Cosine k-means with optional seed centroids and anchored assignments.

Points and centroids are unit-norm; similarity is the dot product. Seeded
clusters let labeled classes keep fixed identities, anchored points are
pinned to their cluster but still pull its centroid. A centroid, like a
class prototype, is the normalized mean of its group of rows
(``normalized_group_means``).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MAX_ITER = 300
NORM_FLOOR = 1e-12


def normalized_group_means(
    points: np.ndarray, groups: np.ndarray, k: int, fallback: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalized mean of the rows of each group ``0..k-1``, and each
    group's row count. Rows with a group id outside ``0..k-1`` are ignored. A
    group with no row, or whose mean has norm below ``NORM_FLOOR``, keeps its
    ``fallback`` row.

    A stable sort keeps each group's rows in their original order, and a
    reduce along axis 0 adds them row by row, so every mean has the bits of
    ``points[groups == g].mean(axis=0)`` and its norm those of
    ``np.linalg.norm`` (the same dot product).
    """
    inside = np.flatnonzero((groups >= 0) & (groups < k))
    # ids of the smallest type that holds k - 1 sort by radix sort
    order = inside[np.argsort(groups[inside].astype(np.min_scalar_type(k - 1)), kind="stable")]
    counts = np.bincount(groups[order], minlength=k)
    filled = np.flatnonzero(counts)
    rows, bounds = points[order], [0, *np.cumsum(counts[filled]).tolist()]
    sums = [np.add.reduce(rows[a:b], axis=0) for a, b in zip(bounds, bounds[1:])]
    mean = np.reshape(sums, (len(filled), points.shape[1])) / counts[filled, None]
    norm = np.sqrt([m @ m for m in mean])
    ok = norm >= NORM_FLOOR
    means = np.array(fallback, dtype=np.float64)
    means[filled[ok]] = mean[ok] / norm[ok, None]
    return means, counts


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
    best_sim = None
    if existing is not None and len(existing):
        best_sim = (points @ existing.T).max(axis=1)

    for _ in range(k_new):
        weights = np.zeros(n) if best_sim is None else np.maximum(1.0 - best_sim, 0.0)
        total = weights.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            # ``rng.choice(n, p=weights / total)`` without its checks
            cdf = np.cumsum(weights / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        chosen.append(idx)
        sim = points @ points[idx]
        best_sim = sim if best_sim is None else np.maximum(best_sim, sim)
    return points[np.asarray(chosen, dtype=np.int64)].copy()


def seeded_kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    seed_centroids: np.ndarray | None = None,
    anchors: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations over unit-norm points with cosine similarity.

    Clusters ``0..len(seed_centroids)-1`` start from the given centroids;
    the rest are k-means++ initialized. ``anchors`` holds one id per point:
    the cluster the point is pinned to, or -1 for a free point. Stops when
    assignments repeat or after ``_MAX_ITER`` rounds.
    An emptied cluster is re-seeded from the point farthest from its own
    centroid.

    A round re-averages only the groups that gained or lost a row or were
    re-seeded: any other group has the rows, in the same order, that its
    centroid was averaged from, so it already has a full recompute's bits.

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

    anchors = np.full(n, -1) if anchors is None else np.asarray(anchors, dtype=np.int64)
    if anchors.shape != (n,) or anchors.min() < -1 or anchors.max() >= k:
        raise ValidationError("anchor cluster id out of range")
    # Only free rows are scored: an anchored row's assignment is fixed.
    free = np.flatnonzero(anchors == -1)
    free_points = points[free]

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(_MAX_ITER):
        sims = free_points @ centroids.T
        new_assign = anchors.copy()
        new_assign[free] = np.argmax(sims, axis=1)

        counts = np.bincount(new_assign, minlength=k)
        changed = np.zeros(k + 1, dtype=bool)  # slot k takes the first round's -1
        for empty in np.flatnonzero(counts == 0):
            candidates = np.flatnonzero(counts[new_assign[free]] > 1)
            if not len(candidates):
                continue
            own_sim = sims[candidates, new_assign[free[candidates]]]
            thief = free[candidates[int(np.argmin(own_sim))]]
            counts[new_assign[thief]] -= 1
            new_assign[thief] = empty
            counts[empty] = 1
            centroids[empty] = points[thief]
            changed[empty] = True  # the raw row is not its normalized mean

        moved = new_assign != assign
        if not moved.any():
            break
        changed[assign[moved]] = changed[new_assign[moved]] = True
        assign = new_assign
        centroids = normalized_group_means(
            points, np.where(changed[assign], assign, -1), k, centroids)[0]

    return assign, centroids
