"""Seeded cosine k-means behavior, and its exactness against the plain
full-recompute Lloyd loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from support import unit_rows

from ltgcd.clustering import kmeans_pp_extend, normalized_group_means, seeded_kmeans
from ltgcd.errors import ValidationError
from ltgcd.rng import derive_stream


def reference_group_means(points, groups, k, fallback):
    """The masked-mean loop: each group's ``.mean(axis=0)`` normalized by
    ``np.linalg.norm``, or its fallback row."""
    means = np.array(fallback, dtype=np.float64)
    for g in range(k):
        members = points[groups == g]
        if len(members):
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm >= 1e-12:
                means[g] = mean / norm
    return means


def reference_pp_extend(points, existing, k_new, rng):
    """k-means++ picks drawn with ``rng.choice``."""
    n = points.shape[0]
    best_sim = (points @ existing.T).max(axis=1) if existing is not None else None
    chosen = []
    for _ in range(k_new):
        weights = None if best_sim is None else np.clip(1.0 - best_sim, 0.0, None)
        if weights is None or weights.sum() <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / weights.sum()))
        chosen.append(idx)
        sim = points @ points[idx]
        best_sim = sim if best_sim is None else np.maximum(best_sim, sim)
    return points[chosen].copy()


def reference_kmeans(points, k, rng, seed_centroids, anchors):
    """The Lloyd loop that re-averages every group in every round."""
    n, n_seeds = len(points), len(seed_centroids)
    centroids = np.vstack([seed_centroids,
                           reference_pp_extend(points, seed_centroids if n_seeds else None,
                                               k - n_seeds, rng)])
    free = np.flatnonzero(anchors == -1)
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(300):
        sims = points[free] @ centroids.T
        new_assign = anchors.copy()
        new_assign[free] = np.argmax(sims, axis=1)
        counts = np.bincount(new_assign, minlength=k)
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
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centroids = reference_group_means(points, assign, k, centroids)
    return assign, centroids


def kmeans_case(rng):
    """A small seeded k-means input. Points repeat a few rows (ties, emptied
    clusters), are unit-norm or not, and may hold a pair x, -x anchored to one
    cluster, whose mean cancels to zero."""
    d = int(rng.choice([1, 2, 3, 5]))
    n = int(rng.integers(2, 30))
    base = rng.standard_normal((int(rng.integers(1, n + 1)), d))
    points = base[rng.integers(len(base), size=n)]
    if rng.random() < 0.5:
        points = points / np.linalg.norm(points, axis=1, keepdims=True)
    k = n if rng.random() < 0.1 else int(rng.integers(1, min(n, 8) + 1))
    anchors = np.where(rng.random(n) < rng.random() * 0.6, rng.integers(k, size=n), -1)
    if n >= 3 and rng.random() < 0.3:
        points[1] = -points[0]
        anchors[:2] = rng.integers(k)
    n_seeds = int(rng.integers(k + 1))
    seeds = rng.standard_normal((n_seeds, d))
    seeds /= np.linalg.norm(seeds, axis=1, keepdims=True)
    return points, k, seeds, anchors


def two_blobs(rng, n_per=20, p=6):
    """Antipodal groups on the unit sphere."""
    center = unit_rows(rng, 1, p)[0]
    a = center + 0.05 * rng.standard_normal((n_per, p))
    b = -center + 0.05 * rng.standard_normal((n_per, p))
    pts = np.vstack([a, b])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestKmeansPpExtend:
    def test_picks_requested_count_of_existing_rows(self):
        rng = derive_stream(0, "test")
        pts = unit_rows(rng, 30, 5)
        picked = kmeans_pp_extend(pts, None, 4, rng)
        assert picked.shape == (4, 5)
        for row in picked:
            assert any(np.array_equal(row, p) for p in pts)

    def test_avoids_regions_covered_by_existing_centroids(self):
        rng = derive_stream(1, "test")
        pts = two_blobs(rng)
        existing = pts[:1].copy()   # covers the first blob
        picked = kmeans_pp_extend(pts, existing, 1, rng)
        # the far blob is overwhelmingly preferred under D^2 weights
        assert picked[0] @ existing[0] < 0.0

    def test_draws_as_rng_choice_does(self):
        # d = 1 against the center [1]: a row x has weight max(1 - x, 0), so
        # rows of 1.0 weigh exactly 0
        for case in range(300):
            rng = np.random.default_rng(case)
            n = int(rng.integers(1, 40))
            x = np.where(rng.random(n) < rng.random(), 1.0, rng.uniform(-1.0, 1.0, n))
            if case % 3 == 0:
                x[:] = 1.0
                x[rng.integers(n)] = rng.uniform(-1.0, 1.0)
            points, center = x[:, None], np.ones((1, 1))
            k_new = int(rng.integers(1, min(n, 3) + 1))
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            expected = reference_pp_extend(points, center, k_new, theirs)
            assert np.array_equal(kmeans_pp_extend(points, center, k_new, ours), expected)
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_too_many_requested_rejected(self):
        rng = derive_stream(2, "test")
        pts = unit_rows(rng, 3, 4)
        with pytest.raises(ValidationError):
            kmeans_pp_extend(pts, None, 4, rng)


class TestSeededKmeans:
    def test_separates_antipodal_groups(self):
        rng = derive_stream(3, "test")
        pts = two_blobs(rng)
        assign, _ = seeded_kmeans(pts, 2, rng)
        first, second = assign[:20], assign[20:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_k_equals_n_gives_singletons(self):
        rng = derive_stream(4, "test")
        pts = unit_rows(rng, 8, 5)
        assign, centroids = seeded_kmeans(pts, 8, rng)
        assert sorted(assign.tolist()) == list(range(8))
        # zero within-cluster dissimilarity: every point sits on its centroid
        for i, c in enumerate(assign):
            assert pts[i] @ centroids[c] == pytest.approx(1.0, abs=1e-9)

    def test_anchored_points_keep_their_cluster(self):
        rng = derive_stream(5, "test")
        pts = two_blobs(rng)
        # anchor two first-blob points to cluster 1, against their geometry
        anchors = np.full(len(pts), -1)
        anchors[[0, 1]] = 1
        assign, _ = seeded_kmeans(pts, 2, rng, anchors=anchors)
        assert assign[0] == 1 and assign[1] == 1

    def test_anchor_id_out_of_range_rejected(self):
        rng = derive_stream(7, "test")
        pts = two_blobs(rng)
        anchors = np.full(len(pts), -1)
        anchors[0] = 2
        with pytest.raises(ValidationError, match="anchor cluster id out of range"):
            seeded_kmeans(pts, 2, rng, anchors=anchors)

    def test_seed_centroids_fix_cluster_identities(self):
        rng = derive_stream(6, "test")
        pts = two_blobs(rng)
        seed = pts[25][None, :]   # a second-blob point seeds cluster 0
        assign, _ = seeded_kmeans(pts, 2, rng, seed_centroids=seed)
        assert np.all(assign[20:] == 0)
        assert np.all(assign[:20] == 1)

    def test_deterministic_given_stream(self):
        pts = two_blobs(derive_stream(7, "test"), n_per=15)
        a1, c1 = seeded_kmeans(pts, 3, derive_stream(9, "eval"))
        a2, c2 = seeded_kmeans(pts, 3, derive_stream(9, "eval"))
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)

    def test_empty_cluster_is_reseeded(self):
        rng = derive_stream(8, "test")
        pts = two_blobs(rng)
        # a centroid orthogonal to both blobs never wins an argmax on its own
        ortho = np.zeros(6)
        ortho[np.argmin(np.abs(pts[0]))] = 1.0
        ortho -= (ortho @ pts[0]) * pts[0]
        ortho /= np.linalg.norm(ortho)
        seeds = np.vstack([pts[0], pts[25], ortho])
        assign, _ = seeded_kmeans(pts, 3, rng, seed_centroids=seeds)
        assert set(assign.tolist()) == {0, 1, 2}

    def test_matches_full_recompute_loop_bit_for_bit(self):
        for case in range(400):
            points, k, seeds, anchors = kmeans_case(np.random.default_rng(case))
            expected = reference_kmeans(points, k, np.random.default_rng(case), seeds, anchors)
            got = seeded_kmeans(points, k, np.random.default_rng(case), seeds, anchors)
            assert np.array_equal(got[0], expected[0]), f"case {case}: assignments"
            assert np.array_equal(got[1], expected[1]), f"case {case}: centroids"

    def test_invalid_k_rejected(self):
        rng = derive_stream(10, "test")
        pts = unit_rows(rng, 5, 4)
        with pytest.raises(ValidationError):
            seeded_kmeans(pts, 0, rng)
        with pytest.raises(ValidationError):
            seeded_kmeans(pts, 6, rng)


FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestNormalizedGroupMeans:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_masked_mean_loop(self, data):
        k = data.draw(st.integers(1, 5))
        p = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(0, 20))
        points = data.draw(arrays(np.float64, (n, p), elements=FINITE))
        # ids -1 and k lie outside 0..k-1 and must be ignored
        groups = data.draw(arrays(np.int64, n, elements=st.integers(-1, k)))
        fallback = data.draw(arrays(np.float64, (k, p), elements=FINITE))
        # one group holds only x and -x, so its mean is exactly zero
        cancel = data.draw(st.integers(0, k - 1))
        x = data.draw(arrays(np.float64, p, elements=FINITE))
        points = np.vstack([points, x, -x])
        groups = np.append(np.where(groups == cancel, -1, groups), [cancel, cancel])

        means, counts = normalized_group_means(points, groups, k, fallback)

        assert np.array_equal(means[cancel], fallback[cancel])
        assert np.array_equal(counts, [np.sum(groups == g) for g in range(k)])
        assert np.array_equal(means, reference_group_means(points, groups, k, fallback))
