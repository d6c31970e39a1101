import itertools

import numpy as np
import pytest

from grasslrr import ClusterLabels, InvalidInputError, accuracy, hungarian


def labels(values, C=None):
    arr = np.asarray(values, dtype=np.int64)
    return ClusterLabels(labels=arr, n_clusters=C if C is not None else int(arr.max()) + 1)


def brute_force_assignment_cost(cost):
    n = cost.shape[0]
    return min(
        sum(cost[i, perm[i]] for i in range(n)) for perm in itertools.permutations(range(n))
    )


class TestAccuracy:
    def test_identical(self):
        truth = labels([0, 1, 2, 0, 1, 2])
        assert accuracy(truth, truth).accuracy == 1.0

    def test_renamed_labels(self):
        truth = labels([0, 0, 1, 1, 2, 2])
        renamed = labels([2, 2, 0, 0, 1, 1])
        assert accuracy(renamed, truth).accuracy == 1.0

    def test_half_matched(self):
        # every bijection matches exactly 2 of 4
        assert accuracy(labels([0, 0, 1, 1]), labels([0, 1, 0, 1])).accuracy == 0.5

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            accuracy(labels([0, 1]), labels([0, 1, 1]))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        truth_values = rng.integers(0, 3, 30)
        pred_values = rng.integers(0, 3, 30)
        base = accuracy(labels(pred_values, 3), labels(truth_values, 3)).accuracy
        perm = np.array([2, 0, 1])
        assert accuracy(labels(perm[pred_values], 3), labels(truth_values, 3)).accuracy == base
        assert accuracy(labels(pred_values, 3), labels(perm[truth_values], 3)).accuracy == base

    def test_constant_prediction_lower_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            truth_values = rng.integers(0, 4, 50)
            truth = labels(truth_values, 4)
            pred = labels(np.zeros(50, dtype=np.int64), 4)
            biggest = np.bincount(truth_values, minlength=4).max()
            assert accuracy(pred, truth).accuracy >= biggest / 50 - 1e-12

    def test_unequal_cluster_counts_padded(self):
        truth = labels([0, 0, 1, 1, 2, 2], 3)
        pred = labels([0, 0, 0, 0, 1, 1], 2)
        report = accuracy(pred, truth)
        assert report.accuracy == pytest.approx(4 / 6)
        assert report.confusion.shape == (3, 3)

    def test_confusion_counts(self):
        truth = labels([0, 0, 1, 1], 2)
        pred = labels([1, 1, 0, 0], 2)
        report = accuracy(pred, truth)
        assert report.confusion[1, 0] == 2
        assert report.confusion[0, 1] == 2
        assert report.confusion.sum() == 4


class TestHungarian:
    def test_identity_favoring(self):
        cost = np.ones((4, 4)) - np.eye(4)
        assert hungarian(cost) == [0, 1, 2, 3]

    def test_single_cell(self):
        assert hungarian(np.array([[3.0]])) == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cost = rng.integers(0, 20, (5, 5)).astype(float)
            assignment = hungarian(cost)
            total = sum(cost[i, assignment[i]] for i in range(5))
            assert total == brute_force_assignment_cost(cost)

    def test_beats_random_permutations(self):
        rng = np.random.default_rng(4)
        cost = rng.standard_normal((8, 8))
        assignment = hungarian(cost)
        total = sum(cost[i, assignment[i]] for i in range(8))
        for _ in range(1000):
            perm = rng.permutation(8)
            assert total <= sum(cost[i, perm[i]] for i in range(8)) + 1e-12

    def test_rejects_rectangular_cost(self):
        # accuracy pads its contingency table to square; hungarian pads nothing
        cost = np.array([[1.0, 0.0, 5.0], [0.0, 2.0, 5.0]])
        for shape in (cost, cost.T):
            with pytest.raises(InvalidInputError, match="square"):
                hungarian(shape)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            hungarian(np.zeros((0, 0)))

    def test_extreme_magnitudes_do_not_overflow(self):
        # entries near the float limit: the potentials must stay finite
        big = np.finfo(np.float64).max
        cost = np.array([[big, -big, 0.0], [-big, big, 1.0], [0.0, 1.0, -big]])
        with np.errstate(all="raise"):
            assignment = hungarian(cost)
        assert assignment == [1, 0, 2]
