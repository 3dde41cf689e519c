"""Optimal assignment and the four clustering-accuracy metrics."""

import itertools

import numpy as np
import pytest

from ltgcd.config import SplitSpec
from ltgcd.data import generate_mixture
from ltgcd.errors import ValidationError
from ltgcd.evaluation import confusion_counts, evaluate, hungarian, matched_accuracy
from ltgcd.harness import metrics_row
from ltgcd.model import ProjectionHead
from ltgcd.rng import derive_stream


def brute_force_min_cost(cost):
    """Independent oracle: exhaustive search over all permutations."""
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    return float(cost[np.arange(n), perms].sum(axis=1).min())


def assignment_cost(cost, pi):
    return float(sum(cost[i, pi[i]] for i in range(len(pi))))


class TestHungarian:
    def test_diagonal_zeros(self):
        pi = hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(pi, [0, 1])

    def test_worked_three_by_three(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        pi = hungarian(cost)
        assert assignment_cost(cost, pi) == 5.0
        assert np.array_equal(pi, [1, 0, 2])
        assert brute_force_min_cost(cost) == 5.0

    def test_matches_brute_force_on_random_7x7(self):
        rng = derive_stream(0, "test")
        for _ in range(100):
            cost = rng.random((7, 7))
            pi = hungarian(cost)
            assert assignment_cost(cost, pi) == pytest.approx(
                brute_force_min_cost(cost), abs=1e-12
            )

    def test_matches_brute_force_on_tie_heavy_integers(self):
        # small integer costs, as negated counts are: many optimal matchings
        rng = derive_stream(1, "test")
        for n in range(1, 8):
            for _ in range(60):
                cost = rng.integers(0, 4, size=(n, n)).astype(np.float64)
                pi = hungarian(cost)
                assert sorted(pi) == list(range(n))
                assert assignment_cost(cost, pi) == brute_force_min_cost(cost)

    @pytest.mark.parametrize("cost", [np.full((6, 6), 2.0), np.zeros((40, 40)),
                                      np.array([[-3.0]]), np.zeros((0, 0))],
                             ids=["equal6", "zeros40", "n1", "n0"])
    def test_degenerate_matrices_give_a_permutation(self, cost):
        pi = hungarian(cost)
        assert pi.dtype == np.int64
        assert sorted(pi) == list(range(cost.shape[0]))

    @pytest.mark.parametrize("n", [50, 100])
    def test_total_cost_matches_scipy_at_scale(self, n):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = derive_stream(n, "test")
        for cost in (rng.random((n, n)), -rng.poisson(3.0, size=(n, n)).astype(np.float64),
                     rng.integers(0, 4, size=(n, n)).astype(np.float64)):
            pi = hungarian(cost)
            assert sorted(pi) == list(range(n))
            rows, cols = linear_sum_assignment(cost)
            assert assignment_cost(cost, pi) == pytest.approx(cost[rows, cols].sum(),
                                                              rel=0, abs=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            hungarian(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            hungarian(np.array([[0.0, np.inf], [1.0, 0.0]]))


class TestConfusionCounts:
    @pytest.mark.parametrize("n_clusters", [3, 5, 8])
    def test_matches_row_by_row_count(self, n_clusters):
        # class ids unsorted and not contiguous; padding on either side
        rng = derive_stream(3, "test")
        class_ids = [7, 2, 5, 11, 0]
        y = rng.choice(class_ids, size=200)
        clusters = rng.integers(0, n_clusters, size=200)
        size = max(n_clusters, len(class_ids))
        expected = np.zeros((size, size))
        for cluster, cls in zip(clusters, y):
            expected[cluster, class_ids.index(cls)] += 1.0
        counts = confusion_counts(y, clusters, class_ids, n_clusters)
        assert counts.dtype == np.float64
        assert np.array_equal(counts, expected)


class TestMatchedAccuracy:
    def test_five_point_worked_example(self):
        acc = matched_accuracy(np.array([0, 0, 1, 1, 2]), np.array([1, 1, 0, 0, 0]))
        assert acc == pytest.approx(0.8)

    def test_perfect_clustering(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert matched_accuracy(y, y) == 1.0

    def test_invariant_under_cluster_relabeling(self):
        rng = derive_stream(1, "test")
        y = rng.integers(0, 4, size=50)
        clusters = rng.integers(0, 4, size=50)
        base = matched_accuracy(y, clusters)
        for perm in itertools.permutations(range(4)):
            relabeled = np.array([perm[c] for c in clusters])
            assert matched_accuracy(y, relabeled) == pytest.approx(base)

    def test_matches_exhaustive_matching(self):
        rng = derive_stream(2, "test")
        for _ in range(20):
            y = rng.integers(0, 4, size=30)
            clusters = rng.integers(0, 4, size=30)
            best = 0
            for perm in itertools.permutations(range(4)):
                best = max(best, int(np.sum(np.array([perm[c] for c in clusters]) == y)))
            assert matched_accuracy(y, clusters) == pytest.approx(best / 30)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            matched_accuracy(np.array([]), np.array([]))


def separable_snapshot(seed=0, num_classes=6, num_known=3, n_k=40, rho=4.0, dim=12):
    """A dataset plus an identity-like head whose features separate classes."""
    spec = SplitSpec(num_classes=num_classes, num_known=num_known,
                     samples_per_known=n_k, rho=rho, dim=dim)
    data = generate_mixture(spec, 8.0, derive_stream(seed, "split"))
    head = ProjectionHead(W1=np.eye(dim), b1=np.zeros(dim),
                          W2=np.eye(dim), b2=np.zeros(dim))
    return head, data


class TestEvaluate:
    def test_perfect_features_score_one_everywhere(self):
        head, data = separable_snapshot(seed=3)
        report = evaluate(head, data, seed=0)
        assert report.all_acc == 1.0
        assert report.known_acc == 1.0
        assert report.un1_acc == 1.0
        assert report.un2_acc == 1.0

    def test_counts_match_dataset(self):
        head, data = separable_snapshot(seed=4)
        report = evaluate(head, data, seed=0)
        unlab_labels = data.labels[~data.is_labeled]
        assert report.n_all == len(unlab_labels)
        assert report.n_known == int(np.isin(unlab_labels, sorted(data.known_classes)).sum())
        assert report.n_novel == report.n_all - report.n_known

    def test_deterministic_given_seed(self):
        head, data = separable_snapshot(seed=5)
        a = evaluate(head, data, seed=7)
        b = evaluate(head, data, seed=7)
        assert a == b

    def test_aware_at_least_agnostic_on_separable_data(self):
        # the aware pass sees the true known/novel split, so it cannot do
        # meaningfully worse than the agnostic score of the same rows
        for seed in range(4):
            head, data = separable_snapshot(seed=10 + seed)
            report = evaluate(head, data, seed=seed)
            assert report.un1_acc >= report.un2_acc - 0.02

    def test_no_novel_rows_reports_absent_metrics(self):
        head, data = separable_snapshot(seed=6)
        keep = np.isin(data.labels, sorted(data.known_classes))
        from ltgcd.data import EmbeddingDataset
        trimmed = EmbeddingDataset(
            points=data.points[keep].copy(),
            labels=data.labels[keep].copy(),
            is_labeled=data.is_labeled[keep].copy(),
            known_classes=data.known_classes,
            unknown_classes=data.unknown_classes,
            num_classes=data.num_classes,
            dim=data.dim,
        )
        report = evaluate(head, trimmed, seed=0)
        assert report.un1_acc is None
        assert report.un2_acc is None
        assert report.all_acc == report.known_acc

    def test_no_known_unlabeled_rows_reports_absent_known(self):
        # two rows per known class, both labeled: the unlabeled pool is all novel
        split = SplitSpec(num_classes=6, num_known=3, samples_per_known=2, rho=1.0,
                          labeled_fraction=0.9, dim=8)
        data = generate_mixture(split, 4.0, derive_stream(0, "split"))
        head = ProjectionHead(W1=np.eye(8), b1=np.zeros(8), W2=np.eye(8), b2=np.zeros(8))
        report = evaluate(head, data, seed=0)
        assert report.n_known == 0 and report.n_novel == report.n_all == 6
        assert report.known_acc is None
        assert report.un1_acc is not None and report.un2_acc is not None
        assert metrics_row(report, rho=1.0, alpha=1.0, beta=2.0)[5] == ""

    def test_csv_row_layout(self):
        head, data = separable_snapshot(seed=7)
        report = evaluate(head, data, seed=3)
        row = metrics_row(report, rho=4.0, alpha=1.0, beta=2.0)
        assert row[0] == "3"
        assert row[1] == "4.0"
        assert len(row) == 8
        assert all(cell != "" for cell in row)
