"""Property tests: invariances that hold exactly or to rounding, over generated inputs.

Examples are derandomized (a fixed sequence per test) and small, so the
suite stays deterministic and fast.
"""

import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment

from grasslrr import (
    ClusterLabels,
    GrassmannPoint,
    InvalidInputError,
    accuracy,
    build_delta,
    hungarian,
    orthonormalize,
    read_matrix,
    write_matrix,
)
from grasslrr import dataio
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


# a width at which write_matrix's row blocks are a few rows tall
WIDE = 4096


def block_edge_shapes():
    """1 row; one less than, equal to and one more than a write block; 2 full blocks and
    one row more; 1 column."""
    b = dataio._block_rows(WIDE)
    return [
        (1, WIDE), (b - 1, WIDE), (b, WIDE), (b + 1, WIDE), (2 * b + 1, WIDE),
        (dataio._block_rows(1) + 1, 1),
    ]


def finite_bit_patterns(seed, shape):
    """Finite float64s from random bits: uniform exponent fields, some subnormal, some +-0."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    field = rng.integers(0, 2047, size=shape, dtype=np.uint64)  # 2047 is inf/nan
    field[rng.random(shape) < 0.1] = 0
    bits = (bits & ~np.uint64(2047 << 52)) | (field << np.uint64(52))
    bits[rng.random(shape) < 0.05] &= np.uint64(1 << 63)
    return bits.view(np.float64)


@pytest.mark.parametrize("shape", block_edge_shapes(), ids=lambda s: f"{s[0]}x{s[1]}")
@settings(PROPERTY, max_examples=6)
@given(seed=st.integers(0, 2**32 - 1))
def test_hex_bytes_match_float_hex(shape, seed):
    M = finite_bit_patterns(seed, shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.mat")
        write_matrix(path, M)
        with open(path, "rb") as fh:
            written = fh.read()
    expected = [f"{shape[0]} {shape[1]}".encode()] + [
        " ".join(map(float.hex, row)).encode() for row in M.tolist()
    ]
    lines = written.split(b"\n")
    assert lines[-1] == b""  # the last row ends with a newline
    # name the first bad line; a diff of megabyte strings would take minutes
    bad = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b), None)
    assert bad is None, f"line {bad + 1} differs"
    assert len(lines) - 1 == len(expected)


# |v| <= 1e308, so no format (%.3e rounds up) overflows to inf
decimal_matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, max_side=5),
    elements=st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
)

DECIMAL_FORMATS = {
    "repr": repr,
    "%.17g": lambda v: "%.17g" % v,
    "%.3e": lambda v: "%.3e" % v,
    # float() allows one underscore between any two digits
    "underscores": lambda v: re.sub(r"(?<=\d)(?=\d)", "_", repr(v)),
}


def write_text(tmp, text):
    path = os.path.join(tmp, "M.mat")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@PROPERTY
@given(decimal_matrices, st.sampled_from(sorted(DECIMAL_FORMATS)))
def test_decimal_fast_path_values_are_float(M, style):
    tokens = [[DECIMAL_FORMATS[style](v) for v in row] for row in M.tolist()]
    text = f"{M.shape[0]} {M.shape[1]}\n" + "".join(" ".join(row) + "\n" for row in tokens)
    expected = np.array([[float(t) for t in row] for row in tokens])
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        # the per-token parser must not be needed for a well-formed decimal file
        with mock.patch.object(dataio, "_parse_rows", side_effect=AssertionError("slow path")):
            back = read_matrix(path)
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("shape", block_edge_shapes(), ids=lambda s: f"{s[0]}x{s[1]}")
def test_decimal_blocks_keep_every_row(shape):
    # decimal files are converted in the writer's row blocks; a non-finite
    # value in the last block still gets the per-token message
    M = np.random.default_rng(shape[0]).standard_normal(shape)
    lines = [f"{shape[0]} {shape[1]}"] + [" ".join(map(repr, row)) for row in M.tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, "\n".join(lines) + "\n")
        assert np.array_equal(read_matrix(path).view(np.int64), M.view(np.int64))
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + " inf" if shape[1] > 1 else "inf"
        path = write_text(tmp, "\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError) as err:
            read_matrix(path)
    assert str(err.value) == (
        f"{path}: non-finite value at line {shape[0] + 1}, column {shape[1]}"
    )


@PROPERTY
@given(
    decimal_matrices,
    st.sampled_from(["hex", "nan", "overflow", "bad", "ragged", "wide"]),
    st.integers(0, 4),
    st.integers(0, 2),
)
@example(np.array([[1.0, 2.0], [3.0, 4.0]]), "ragged", 0, 0)  # rows of 3 and 1 under "2 2"
@example(np.array([[1.0, 2.0]]), "wide", 0, 2)
def test_decimal_defects_give_per_token_outcome(M, defect, col, blanks):
    rows, cols = M.shape
    col %= cols
    tokens = [[repr(v) for v in row] for row in M.tolist()]
    last = 1 + rows + blanks  # physical line of the last row: header, rows, blank lines
    if defect == "hex":
        tokens[-1][col] = float.hex(M[-1, col])
    elif defect == "nan":
        tokens[-1][col] = "nan"
        message = f"non-finite value at line {last}, column {col + 1}"
    elif defect == "overflow":
        tokens[-1][col] = "-1e400"
        message = f"non-finite value at line {last}, column {col + 1}"
    elif defect == "bad":
        tokens[-1][col] = "1.0.0"
        message = f"cannot parse value at line {last}, column {col + 1}: '1.0.0'"
    elif defect == "ragged":
        assume(rows >= 2 and cols >= 2)
        tokens[0].append(tokens[-1].pop())  # right total, ragged rows
        message = f"line 2 has {cols + 1} values, header promises {cols}"
    else:
        for row in tokens:  # every row equally long, one value more than the header says
            row.append("0")
        first = 2 if rows > 1 else last
        message = f"line {first} has {cols + 1} values, header promises {cols}"
    lines = [" ".join(row) for row in tokens]
    text = "\n".join([f"{rows} {cols}", *lines[:-1], *[""] * blanks, lines[-1]]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        if defect == "hex":
            back = read_matrix(path)
            assert np.array_equal(back.view(np.int64), M.view(np.int64))
            return
        with pytest.raises(InvalidInputError) as err:
            read_matrix(path)
    assert str(err.value) == f"{path}: {message}"


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
