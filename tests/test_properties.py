"""Property tests: invariances that hold exactly or to rounding, over generated inputs.

Examples are derandomized (a fixed sequence per test) and small, so the
suite stays deterministic and fast.
"""

import contextlib
import io
import os
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment

from grasslrr import (
    AdmmConfig,
    ClusterLabels,
    GrassmannPoint,
    InvalidInputError,
    NcutConfig,
    SynthSpec,
    accuracy,
    admm_solve,
    build_delta,
    cluster_pipeline,
    hungarian,
    kmeans,
    ncut,
    orthonormalize,
    read_matrix,
    sym_eig,
    synth_union,
    write_matrix,
)
from grasslrr import clustering, dataio
from grasslrr.admm import SVT_EIGH_GUARD, _svt
from grasslrr.cli import main
from grasslrr.kernels import KERNEL_KINDS, KernelSpec, assemble_gram, psd_clamp
from grasslrr.manifold import canonical_signs

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


def every_exponent_field():
    """2^(e-1023) for every normal exponent field e, the smallest and largest subnormal,
    the largest normal and 0 in row 0; the negation of each in row 1."""
    f = np.finfo(np.float64)
    values = np.r_[np.ldexp(1.0, np.arange(-1022, 1024)), f.smallest_subnormal,
                   np.nextafter(f.tiny, 0.0), f.max, 0.0]
    return np.stack([values, -values])


# None is the fixed input, which reaches every row of the writer's suffix table
@pytest.mark.parametrize("shape", [*block_edge_shapes(), None],
                         ids=lambda s: "every-exponent-field" if s is None else f"{s[0]}x{s[1]}")
@settings(PROPERTY, max_examples=6)
@given(seed=st.integers(0, 2**32 - 1))
def test_hex_bytes_match_float_hex(shape, seed):
    M = every_exponent_field() if shape is None else finite_bit_patterns(seed, shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.mat")
        write_matrix(path, M)
        with open(path, "rb") as fh:
            written = fh.read()
    expected = [f"{M.shape[0]} {M.shape[1]}".encode()] + [
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
    # shapes at the edges of the writer's row blocks: every row of a decimal
    # file is read, and a non-finite value in the last row gets the per-token message
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


HEX_FORMATS = {
    "float.hex": float.hex,
    "upper": lambda v: float.hex(v).upper(),
    # trailing zeros of the fraction dropped: 0x1.8p+1, 0x1p+0, 0x0p+0
    "short": lambda v: re.sub(r"\.?0+p", "p", float.hex(v)),
    # a file counting both letters: negative values as 0X..., the rest as 0x...
    "mixed-case": lambda v: float.hex(v).upper() if v < 0 else float.hex(v),
}


@PROPERTY
@given(finite_matrices, st.sampled_from(sorted(HEX_FORMATS)))
def test_hex_fast_path_matches_per_token_parse(M, style):
    tokens = [[HEX_FORMATS[style](v) for v in row] for row in M.tolist()]
    text = f"{M.shape[0]} {M.shape[1]}\n" + "".join(" ".join(row) + "\n" for row in tokens)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        expected = dataio._parse_rows(path, M.shape[1], dataio.read_lines(path, "matrix")[1:])
        # the per-token parser must not be needed for a well-formed hex file
        with mock.patch.object(dataio, "_parse_rows", side_effect=AssertionError("slow path")):
            back = read_matrix(path)
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))
    assert np.array_equal(back.view(np.int64), M.view(np.int64))


@PROPERTY
@given(
    finite_matrices,
    st.sampled_from(["hex", "decimal"]),
    st.sampled_from(["mixed", "nan", "overflow", "bad", "two-x", "x-moved", "ragged", "wide"]),
    st.integers(0, 4),
)
@example(np.array([[1.0, 2.0], [3.0, 4.0]]), "hex", "ragged", 0)  # rows of 3 and 1 under "2 2"
@example(np.array([[1.0, 2.0], [3.0, 4.0]]), "decimal", "ragged", 0)
@example(np.array([[10.0, 2.0]]), "hex", "mixed", 0)  # float.fromhex("10.0") is 16.0
@example(np.array([[10.0, 2.0]]), "decimal", "mixed", 1)  # one hex token among decimals
@example(np.array([[10.0, 2.0]]), "hex", "x-moved", 0)  # '0x0x1' and a bare '2.0'
@example(np.array([[1.0, -2.5]]), "hex", "wide", 0)
@example(np.array([[1.0, -2.5]]), "decimal", "wide", 0)
@example(np.array([[1.0, -2.5]]), "decimal", "nan", 0)
@example(np.array([[1.0, -2.5]]), "decimal", "overflow", 1)
@example(np.array([[1.0, -2.5]]), "decimal", "bad", 1)
def test_hex_defects_give_per_token_outcome(M, form, defect, col):
    # each defect in a file of either form gets the per-token parser's outcome
    rows, cols = M.shape
    col %= cols
    values = M.tolist()
    render, other = (float.hex, repr) if form == "hex" else (repr, float.hex)
    tokens = [[render(v) for v in row] for row in values]
    if defect == "mixed":  # a valid file holding both forms: each token is read as its own
        tokens[-1][col] = other(values[-1][col])
    elif defect == "nan":
        tokens[-1][col] = "nan"
    elif defect == "overflow":
        tokens[-1][col] = "-0x1p+2000" if form == "hex" else "1e400"
    elif defect == "bad":
        tokens[-1][col] = "0x1.0.0" if form == "hex" else "1.0.0"
    elif defect == "two-x":
        tokens[-1][col] = "0x0x1"
    elif defect == "x-moved":  # in a hex file the count of 'x' still equals the token count
        assume(rows * cols >= 2)
        tokens[0][0] = "0x0x1"
        tokens[-1][-1] = repr(values[-1][-1])
    elif defect == "ragged":
        assume(rows >= 2 and cols >= 2)
        tokens[0].append(tokens[-1].pop())
    else:
        for row in tokens:
            row.append(render(0.0))
    text = f"{rows} {cols}\n" + "".join(" ".join(row) + "\n" for row in tokens)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_text(tmp, text)
        body = dataio.read_lines(path, "matrix")[1:]
        try:
            expected = dataio._parse_rows(path, cols, body)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as err:
                read_matrix(path)
            assert str(err.value) == str(exc)
        else:
            assert defect == "mixed"
            back = read_matrix(path)
            assert np.array_equal(back.view(np.int64), expected.view(np.int64))
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


assignment_shapes = st.integers(1, 12).map(lambda k: (k, k))
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
    # scipy is the test-only oracle
    n = cost.shape[0]
    assignment = np.asarray(hungarian(cost))
    assert sorted(assignment.tolist()) == list(range(n))
    total = cost[np.arange(n), assignment].sum()
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


@st.composite
def permuted_unions(draw):
    """(points, n_clusters, noise_sigma, seed, perm): a small synthetic union of
    subspaces and a permutation of its points."""
    C = draw(st.integers(2, 3))
    m = draw(st.integers(3, 18 // C))
    d = draw(st.integers(6, 12))
    p = draw(st.integers(1, 3))
    sigma = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    points, _ = synth_union(SynthSpec(C, m, d, p, noise_sigma=sigma, seed=seed))
    return points, C, sigma, seed, np.array(draw(st.permutations(range(C * m))))


@pytest.mark.parametrize("method, kwargs", [
    ("glrr-f", {"lam": 0.5}),
    ("kglrr", {"lam": 0.5, "kernel_spec": KernelSpec(kind="cc-sum")}),
    ("glrr-21", {"lam": 1.0, "admm_cfg": AdmmConfig(lam=1.0, max_iters=60)}),
])
@settings(PROPERTY, max_examples=24)
@given(permuted_unions())
def test_pipeline_is_permutation_equivariant(method, kwargs, case):
    points, n_clusters, sigma, seed, perm = case
    cfg = NcutConfig(n_clusters=n_clusters, seed=seed)
    labels = cluster_pipeline(points, method, cfg, **kwargs)[0].labels[perm]
    permuted = cluster_pipeline([points[i] for i in perm], method, cfg, **kwargs)[0].labels
    # the same partition: each label of one run pairs with exactly one of the other
    pairs = set(zip(labels.tolist(), permuted.tolist()))
    assert len(pairs) == len(set(labels.tolist())) == len(set(permuted.tolist())) == n_clusters
    if sigma > 0.0 or n_clusters > 2:
        # two noise-free clusters of equal size have one cross-cluster Gram value, so
        # swapping them leaves the affinity as it was: no labelling can follow that
        # permutation, and only there may the label names differ
        assert np.array_equal(permuted, labels)


@PROPERTY
@given(st.integers(2, 9), st.sampled_from(["indefinite", "psd", "rank-1"]),
       st.integers(0, 2**32 - 1))
def test_every_consumer_reads_sym_eigs_ascending_order(n, kind, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if kind == "indefinite":
        A = A + A.T
    elif kind == "psd":
        A = A @ A.T
    else:  # N - 1 eigenvalues at rounding level, which psd_clamp drops
        A = np.outer(A[0], A[0])
    E = rng.standard_normal((n, n))
    A = A + 1e-10 * np.max(np.abs(A)) * (E - E.T)  # asymmetry that symmetrizing removes

    # sym_eig: eigh's own arrays, ascending, read-only
    ew, eV = sym_eig(A)
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    assert ew.tobytes() == w.tobytes()
    assert eV.tobytes() == V.tobytes()
    assert np.all(np.diff(ew) >= 0.0)
    assert not (ew.flags.writeable or eV.flags.writeable)

    # psd_clamp: exactly the last r pairs, the eigenvectors a C-contiguous copy
    kept = psd_clamp(A)
    r = int(np.count_nonzero(w > n * np.finfo(np.float64).eps * max(w[-1], 0.0)))
    assert kept.eigenvalues.tobytes() == w[n - r:].tobytes()
    assert kept.eigenvectors.tobytes() == np.ascontiguousarray(V[:, n - r:]).tobytes()
    assert kept.eigenvectors.flags.c_contiguous and kept.eigenvectors.flags.owndata
    assert not kept.eigenvectors.flags.writeable

    # ncut: k-means runs on the first k eigenvectors of L, sign-fixed and row-normalized
    k = 2 + seed % (n - 1)
    seen = {}

    def spy_eig(L):
        seen["eig"] = sym_eig(L)
        return seen["eig"]

    def spy_kmeans(rows, *args):
        seen["rows"] = rows
        return kmeans(rows, *args)

    with mock.patch.object(clustering, "sym_eig", spy_eig), \
            mock.patch.object(clustering, "kmeans", spy_kmeans):
        ncut(np.abs(A + A.T), NcutConfig(n_clusters=k, seed=1))
    emb = seen["eig"][1][:, :k]
    emb = emb * canonical_signs(emb)
    norms = np.linalg.norm(emb, axis=1)
    assert seen["rows"].tobytes() == (emb / np.where(norms > 0.0, norms, 1.0)[:, None]).tobytes()


SVT_THRESHOLDS = ("zero", "1e-14", "below-guard", "above-guard", "mid", "log-mid", "above-max")


@st.composite
def svt_cases(draw):
    """(M, tau): a square, tall or wide matrix up to 40 on a side with a chosen
    spectrum, and a threshold placed against that spectrum."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    m, n = draw(st.sampled_from([(m, m), (max(m, n), min(m, n)), (min(m, n), max(m, n))]))
    k = min(m, n)
    kind = draw(st.sampled_from(["random", "repeated", "rank-deficient", "graded"]))
    sigma_max = 10.0 ** draw(st.integers(-2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        s = rng.uniform(0.0, 1.0, k)
    elif kind == "repeated":
        s = rng.choice([1.0, 0.5, 0.5, 0.1, 1e-3], k)
    elif kind == "rank-deficient":
        s = rng.uniform(0.0, 1.0, k) * (np.arange(k) < draw(st.integers(0, k - 1)))
    else:
        s = 10.0 ** -np.linspace(0.0, 15.0, k)
    s = sigma_max * np.sort(s)[::-1] / max(np.max(s), 1e-300)
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    M = (U * s) @ V.T
    top = float(np.linalg.svd(M, compute_uv=False)[0])
    where = draw(st.sampled_from(SVT_THRESHOLDS))
    if where == "zero":
        tau = 0.0
    elif where == "1e-14":
        tau = 1e-14
    elif where in ("below-guard", "above-guard"):
        tau = (1.0 - 1e-3 if where == "below-guard" else 1.0 + 1e-3) * SVT_EIGH_GUARD * top
    elif where == "mid":
        tau = top * draw(st.floats(1e-3, 0.999))
    elif where == "log-mid":  # inside a graded spectrum, on either side of the guard
        tau = top * 10.0 ** -draw(st.floats(0.0, 15.0))
    else:
        tau = top * draw(st.floats(1.001, 4.0))
    return M, tau


@settings(PROPERTY, max_examples=200)
@given(svt_cases())
@example((np.zeros((3, 5)), 0.5))
def test_svt_matches_gesdd_oracle(case):
    M, tau = case
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    # a singular value within rounding of tau may land on either side of it
    assume(np.all(np.abs(s - tau) > 1e-9 * max(s[0], 1e-300)) or tau < SVT_EIGH_GUARD * s[0])
    expected = np.maximum(s - tau, 0.0)
    Z, shrunk, _ = _svt(M, tau)
    bound = 1e-12 * max(1.0, s[0])
    assert Z.shape == M.shape and shrunk.shape == s.shape
    assert np.count_nonzero(shrunk) == np.count_nonzero(expected)
    assert np.max(np.abs(shrunk - expected)) <= bound
    assert np.max(np.abs(Z - (U * expected) @ Vt)) <= bound


@settings(PROPERTY, max_examples=40)
@given(point_sets(), st.floats(0.05, 5.0), st.integers(0, 60))
def test_admm_dual_bound_never_exceeds_primal_bound(point_set, lam, max_iters):
    # weak duality: whatever the iterate, the certified gap is nonnegative
    points, _ = point_set
    _, _, report = admm_solve(build_delta(points), AdmmConfig(lam=lam, max_iters=max_iters))
    assert np.isfinite([report.primal_bound, report.dual_bound]).all()
    assert report.dual_bound <= report.primal_bound * (1.0 + 1e-12)
    assert report.relative_gap >= -1e-12


# the cluster runs the exit-code contract covers: every method, each cc kernel,
# and glrr-f given a kernel it does not read
CLI_RUNS = (
    ("--method", "glrr-f"),
    ("--method", "glrr-21", "--max-iters", "20"),
    ("--method", "kglrr", "--kernel", "cc-max"),
    ("--method", "kglrr", "--kernel", "cc-sum"),
    ("--method", "kglrr", "--kernel", "ccp"),
    ("--method", "glrr-f", "--kernel", "ccp"),
)
EXTREME_VALUES = (np.finfo(np.float64).max, -np.finfo(np.float64).max, np.finfo(np.float64).tiny,
                  np.finfo(np.float64).smallest_subnormal, 1e300, -1e-300)

# --config keys, some unknown (eta, the fixed ADMM step size, is no setting), and
# values: digits come only from the bounded choices, so no entry asks for a
# k-means batch that fits in memory but is slow
CONFIG_KEYS = ("seed", "p", "standardize", "kernel", "alpha", "mu0", "rho0", "mu-max", "eta",
               "eps1", "eps2", "max-iters", "restarts", "kmeans-max-iters", "clusters", "wibble")
config_values = (st.sampled_from(("", "x", "true", "0.5", "1e-300", "1e308", "inf", "-inf", "nan"))
                 | st.integers(-3, 64).map(str)
                 | st.text(st.characters(exclude_categories=("Cc", "Cs", "Nd")), max_size=8))

# one mutation of a 12-point set of 6 x 2 hex matrices: a byte of one matrix file
# replaced, inserted or deleted; a manifest or truth line replaced; every matrix
# scaled by 2^k; one matrix entry set to an extreme finite value; every matrix a
# copy of the first (one subspace, a rank-1 Gram matrix); or a --config entry
set_mutations = st.one_of(
    st.tuples(st.sampled_from(["replace-byte", "insert-byte", "delete-byte"]),
              st.integers(0, 11), st.integers(0, 2**16), st.integers(0, 255)),
    st.tuples(st.just("replace-line"), st.sampled_from(["manifest.txt", "truth.txt"]),
              st.integers(0, 12), st.binary(max_size=24)),
    st.tuples(st.just("rescale"), st.integers(-1074, 1074)),
    st.tuples(st.just("extreme-entry"), st.integers(0, 11), st.integers(0, 5), st.integers(0, 1),
              st.sampled_from(EXTREME_VALUES) | st.floats(allow_nan=False, allow_infinity=False)),
    st.just(("repeat",)),
    st.tuples(st.just("config"), st.sampled_from(CONFIG_KEYS), config_values),
)


def write_hex(path, M):
    """A matrix file of float.hex tokens; unlike write_matrix it also writes inf."""
    rows = "".join(" ".join(map(float.hex, row)) + "\n" for row in M.tolist())
    path.write_text(f"{M.shape[0]} {M.shape[1]}\n{rows}")


def mutate(data, mutation):
    kind, *args = mutation
    matrices = sorted((data / "points").glob("*.mat"))
    if kind.endswith("-byte"):
        i, at, byte = args
        raw = bytearray(matrices[i].read_bytes())
        at %= len(raw)
        if kind == "replace-byte":
            raw[at] = byte
        elif kind == "insert-byte":
            raw.insert(at, byte)
        else:
            del raw[at]
        matrices[i].write_bytes(bytes(raw))
    elif kind == "replace-line":
        name, at, line = args
        lines = (data / name).read_bytes().split(b"\n")
        lines[at % len(lines)] = line
        (data / name).write_bytes(b"\n".join(lines))
    elif kind == "repeat":
        for path in matrices[1:]:
            shutil.copyfile(matrices[0], path)
    elif kind == "config":
        key, value = args
        (data / "run.cfg").write_text(f"{key}={value}\n")
    elif kind == "rescale":
        for path in matrices:
            with np.errstate(over="ignore", under="ignore"):
                write_hex(path, np.ldexp(read_matrix(path), args[0]))
    else:
        i, row, col, value = args
        M = read_matrix(matrices[i])
        M[row, col] = value
        write_hex(matrices[i], M)


@pytest.fixture(scope="module")
def hex_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("hex") / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--clusters", "3", "--per-cluster", "4", "--d", "6", "--p", "2",
                     "--sigma", "0.05", "--seed", "5", "--out", str(out)]) == 0
    return out


@settings(PROPERTY, max_examples=50)
@given(mutation=set_mutations, run=st.sampled_from(CLI_RUNS), standardize=st.booleans(),
       p1=st.booleans())
# a set scaled near 1e300, whose unscaled std overflows under --standardize
@example(mutation=("rescale", 997), run=CLI_RUNS[0], standardize=True, p1=False)
# k-means batches of 8.6 GB and 86 TB, refused before any file is read
@example(mutation=("config", "restarts", "10000000"), run=CLI_RUNS[0], standardize=False, p1=False)
@example(mutation=("config", "restarts", "100000000000"), run=CLI_RUNS[3], standardize=False,
         p1=False)
# twelve copies of one subspace, whose Gram matrix keeps one eigenpair
@example(mutation=("repeat",), run=CLI_RUNS[0], standardize=False, p1=False)
@example(mutation=("repeat",), run=CLI_RUNS[1], standardize=True, p1=False)
@example(mutation=("repeat",), run=CLI_RUNS[3], standardize=True, p1=True)
@example(mutation=("rescale", 0), run=CLI_RUNS[1], standardize=False, p1=True)
# a value its setting's type refuses, for a method that does not read the setting
@example(mutation=("config", "alpha", "2"), run=CLI_RUNS[5], standardize=False, p1=False)
@example(mutation=("config", "mu0", "nan"), run=CLI_RUNS[3], standardize=False, p1=False)
@example(mutation=("config", "max-iters", "0"), run=CLI_RUNS[0], standardize=False, p1=False)
def test_cluster_exit_code_contract(hex_set, mutation, run, standardize, p1):
    # README: exit 0, 2 or 3, never a raw exception, and an error line for 2 and 3
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(hex_set, data)
        mutate(data, mutation)
        argv = ["cluster", "--data", str(data), "--truth", str(data / "truth.txt"), *run,
                "--lambda", "0.5", "--clusters", "3", "--out", str(Path(tmp) / "out")]
        argv += ["--standardize"] * standardize + ["--p", "1"] * p1
        if (data / "run.cfg").exists():
            argv += ["--config", str(data / "run.cfg")]
        err = io.StringIO()
        # check_memory reads physical memory: fixed at 8 GiB, the restarts
        # examples are refused on every machine
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                mock.patch("grasslrr.cli.page_bytes", return_value=8 << 30):
            code = main(argv)
    assert code in (0, 2, 3), code
    if code != 0:
        assert err.getvalue().startswith("error:"), err.getvalue()
