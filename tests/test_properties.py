"""Property tests: invariances that hold exactly or to rounding, over generated inputs.

Examples are derandomized (a fixed sequence per test) and small, so the
suite stays deterministic and fast.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment

from grasslrr import (
    ClusterLabels,
    GrassmannPoint,
    accuracy,
    build_delta,
    hungarian,
    orthonormalize,
    read_matrix,
    write_matrix,
)
from grasslrr.kernels import KERNEL_KINDS, KernelSpec, assemble_gram

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

finite_matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, max_side=5),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def point_sets(draw):
    """(points, seed): n random p-dimensional subspaces of R^d."""
    d = draw(st.integers(2, 7))
    p = draw(st.integers(1, min(3, d)))
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return [orthonormalize(rng.standard_normal((d, p)), p) for _ in range(n)], seed


def random_rotation(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


@PROPERTY
@given(finite_matrices)
@example(np.array([[-0.0, 0.0], [5e-324, -2.2250738585072014e-308]]))
@example(np.array([[np.finfo(np.float64).max, -np.finfo(np.float64).tiny]]))
def test_hex_round_trip_is_bit_exact(M):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.mat")
        write_matrix(path, M)
        back = read_matrix(path)
    assert back.shape == M.shape
    # compare bit patterns, so -0.0 vs 0.0 would count as a difference
    assert np.array_equal(back.view(np.int64), M.view(np.int64))


@PROPERTY
@given(point_sets(), st.sampled_from(KERNEL_KINDS))
def test_gram_invariant_under_basis_rotation(point_set, kind):
    # each kernel depends on span(X) only, so X -> XR (R orthogonal) leaves G unchanged
    points, seed = point_set
    rng = np.random.default_rng(seed ^ 0x5EED)
    rotated = [GrassmannPoint(basis=X.basis @ random_rotation(rng, X.p)) for X in points]
    spec = KernelSpec(kind=kind)
    G, G_rot = assemble_gram(points, spec), assemble_gram(rotated, spec)
    assert np.max(np.abs(G - G_rot)) <= 1e-12


@PROPERTY
@given(point_sets())
def test_projection_gram_is_psd_with_diagonal_p(point_set):
    points, _ = point_set
    G = build_delta(points).values
    p = points[0].p
    assert np.array_equal(G, G.T)
    assert np.max(np.abs(np.diag(G) - p)) <= 1e-12
    w = np.linalg.eigvalsh(G)
    assert w[0] >= -1e-12 * w[-1]


assignment_shapes = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
# small integers make ties common; floats exercise rounding in the potentials
cost_matrices = st.one_of(
    arrays(np.float64, assignment_shapes, elements=st.integers(-3, 3).map(float)),
    arrays(
        np.float64,
        assignment_shapes,
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
)


@PROPERTY
@given(cost_matrices)
def test_hungarian_cost_matches_scipy(cost):
    # scipy is the test-only oracle; it solves rectangular problems directly
    n, m = cost.shape
    assignment = np.asarray(hungarian(cost))
    assert assignment.shape == (n,)
    assert len(set(assignment.tolist())) == n
    real = assignment < m
    assert real.sum() == min(n, m)
    total = cost[np.flatnonzero(real), assignment[real]].sum()
    rows, cols = linear_sum_assignment(cost)
    assert total == pytest.approx(cost[rows, cols].sum(), rel=1e-12, abs=1e-9)


@st.composite
def label_pairs(draw):
    """(pred, truth) ClusterLabels over the same points, with their own cluster counts."""
    n = draw(st.integers(1, 60))
    k_pred, k_truth = draw(st.integers(1, min(n, 8))), draw(st.integers(1, min(n, 8)))
    pred = draw(st.lists(st.integers(0, k_pred - 1), min_size=n, max_size=n))
    truth = draw(st.lists(st.integers(0, k_truth - 1), min_size=n, max_size=n))
    return (
        ClusterLabels(labels=np.array(pred), n_clusters=k_pred),
        ClusterLabels(labels=np.array(truth), n_clusters=k_truth),
    )


@PROPERTY
@given(label_pairs())
def test_accuracy_matches_scipy_matching(pair):
    pred, truth = pair
    contingency = np.zeros((pred.n_clusters, truth.n_clusters), dtype=np.int64)
    np.add.at(contingency, (pred.labels, truth.labels), 1)
    rows, cols = linear_sum_assignment(contingency, maximize=True)
    n = pred.labels.shape[0]
    assert accuracy(pred, truth).accuracy == contingency[rows, cols].sum() / n
