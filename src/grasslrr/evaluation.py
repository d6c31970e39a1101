"""Permutation-matched clustering accuracy and confusion counts.

Predicted labels are renamed by the assignment that maximizes the number of
matched points (a minimum-cost matching on the negated contingency table),
so accuracy never depends on the arbitrary numbering a clusterer emits.
The assignment is solved in-house, so scoring a run loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterLabels
from .errors import InvalidInputError
from .manifold import as_matrix


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    confusion: np.ndarray


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a finite square cost matrix, at minimum total cost.

    Shortest augmenting paths with row and column potentials (Kuhn 1955;
    Jonker & Volgenant 1987), O(k^3) for k x k.  Rows enter one at a time;
    each entry grows a Dijkstra tree over the reduced costs
    cost[r, c] - u[r] - v[c] >= 0 until it reaches a free column, then flips
    the matching along that path.  One tree step is vectorized over all
    columns, so the Python-level work is O(k^2) steps.  Ties go to the lowest
    column index.
    """
    k = cost.shape[0]
    # 1-based rows and columns; column 0 is the root of each search tree
    a = np.zeros((k + 1, k + 1))
    # scaling by a power of two is exact and keeps the potentials (sums of
    # up to k costs) finite however large the entries are
    a[1:, 1:] = np.ldexp(cost, -np.frexp(np.abs(cost).max())[1])
    u = np.zeros(k + 1)
    v = np.zeros(k + 1)
    row_of = np.zeros(k + 1, dtype=np.int64)  # row matched to each column, 0: free
    way = np.zeros(k + 1, dtype=np.int64)  # previous column on the shortest path
    for i in range(1, k + 1):
        row_of[0] = i
        col = 0
        dist = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while row_of[col] != 0:  # row_of[0] = i: the root is matched to the entering row
            used[col] = True
            r = row_of[col]
            reduced = a[r] - u[r] - v
            closer = ~used & (reduced < dist)
            dist[closer] = reduced[closer]
            way[closer] = col
            frontier = np.where(used, np.inf, dist)
            col = int(np.argmin(frontier))
            step = frontier[col]
            u[row_of[used]] += step
            v[used] -= step
            dist[~used] -= step
        while col != 0:
            prev = way[col]
            row_of[col] = row_of[prev]
            col = prev
    assignment = np.empty(k, dtype=np.int64)
    assignment[row_of[1:] - 1] = np.arange(k)
    return assignment


def hungarian(cost) -> list[int]:
    """Minimum-cost assignment of a square cost matrix; the chosen column for each row."""
    cost = as_matrix(cost, "cost")
    if cost.shape[0] != cost.shape[1]:
        raise InvalidInputError(f"cost must be square, got {cost.shape}")
    return _min_cost_assignment(cost).tolist()


def accuracy(pred: ClusterLabels, truth: ClusterLabels) -> EvalReport:
    """Fraction of points matched under the best predicted-to-true label map."""
    if pred.labels.shape[0] != truth.labels.shape[0]:
        raise InvalidInputError(
            f"label lengths differ: {pred.labels.shape[0]} vs {truth.labels.shape[0]}"
        )
    n = pred.labels.shape[0]
    side = max(pred.n_clusters, truth.n_clusters)  # square, as hungarian requires
    contingency = np.zeros((side, side), dtype=np.int64)
    np.add.at(contingency, (pred.labels, truth.labels), 1)

    assignment = hungarian(-contingency.astype(np.float64))
    matched = int(sum(contingency[p, assignment[p]] for p in range(side)))
    confusion = contingency.copy()
    confusion.setflags(write=False)
    return EvalReport(accuracy=matched / n, confusion=confusion)
