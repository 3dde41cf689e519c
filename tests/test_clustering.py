"""Seeded cosine k-means behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from support import unit_rows

from ltgcd.clustering import kmeans_pp_extend, normalized_group_means, seeded_kmeans
from ltgcd.errors import ValidationError
from ltgcd.rng import derive_stream


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
        for g in range(k):
            members = points[groups == g]
            assert counts[g] == len(members)
            expected = fallback[g]
            if len(members):
                mean = members.mean(axis=0)
                norm = np.linalg.norm(mean)
                if norm >= 1e-12:
                    expected = mean / norm
            assert np.array_equal(means[g], expected)
