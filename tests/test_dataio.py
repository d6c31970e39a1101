import inspect
import multiprocessing
import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from grasslrr import dataio, errors
from grasslrr import (
    ClusterLabels,
    InfeasibleSpecError,
    InvalidInputError,
    SynthSpec,
    accuracy,
    build_point,
    load_manifest,
    orthonormalize,
    read_labels,
    read_matrix,
    save_results,
    synth_union,
    write_labels,
    write_matrix,
)
from grasslrr.dataio import load_points, load_workers
from grasslrr.manifold import GrassmannPoint
from grasslrr.parallel import worker_count
from grasslrr.rng import SplitMix64, mix64
from oracles import grassmann_distance, k_projection, load_report, principal_angle_cosines


class TestMatrixRoundTrip:
    def test_identity(self, tmp_path):
        path = tmp_path / "m.mat"
        write_matrix(path, np.eye(3))
        assert np.array_equal(read_matrix(path), np.eye(3))

    def test_extreme_exponents_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 4))
        M[0, 0] = 1e-300
        M[1, 1] = 1e300
        M[2, 2] = -1e-300
        M[3, 3] = np.nextafter(1.0, 2.0)
        path = tmp_path / "m.mat"
        write_matrix(path, M)
        out = read_matrix(path)
        assert np.array_equal(out, M)
        assert all(a.hex() == b.hex() for a, b in zip(M.reshape(-1), out.reshape(-1)))

    def test_hex_bytes_match_per_value_formula(self, tmp_path):
        tiny = np.finfo(np.float64).tiny
        big = np.finfo(np.float64).max
        M = np.array([
            [-0.0, 0.0, 5e-324, -5e-324],
            [tiny / 3, -tiny, big, -big],
            [1.0, -2.0, 3.0, 2.0**52],
            [0.1, -1e-300, 1e300, np.nextafter(1.0, 2.0)],
        ])
        path = tmp_path / "m.mat"
        write_matrix(path, M)
        expected = "4 4\n" + "".join(
            " ".join(float(v).hex() for v in row) + "\n" for row in M
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_write_temporaries_stay_a_few_mb(self):
        # blocks of _BLOCK_VALUES values; one block for the whole matrix would hold
        # 4e6 cells of 25 bytes, over 100 MB
        M = np.random.default_rng(0).standard_normal((2000, 2000))
        tracemalloc.start()
        try:
            write_matrix(os.devnull, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_decimal_accepted(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("2 2\n1.5 -2.25\n0.125 3\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.5, -2.25], [0.125, 3.0]])

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("2 3\n1 2 3 4 5\n")
        with pytest.raises(InvalidInputError):
            read_matrix(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(InvalidInputError):
            read_matrix(path)

    def test_parse_error_names_position(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("2 2\n1 2\n3 oops\n")
        with pytest.raises(InvalidInputError) as err:
            read_matrix(path)
        assert "line 3" in str(err.value)
        assert "column 2" in str(err.value)

    @pytest.mark.parametrize("content, expected", [
        ("2 2\n\n1 0\n0 x\n", "cannot parse value at line 4, column 2: 'x'"),
        ("2 2\n\n1 0\n0 oops\n", "cannot parse value at line 4, column 2: 'oops'"),
        ("2 2\n1 0\n\n  \n0 nan\n", "non-finite value at line 5, column 2"),
        ("\n2 2\n1 0\n\n0\n", "line 5 has 1 values, header promises 2"),
        # nothing is allocated from the header's column count before a row matches it
        ("1 99999999999999999999\n1 2\n",
         "line 2 has 2 values, header promises 99999999999999999999"),
        ("2 4000000000\n1 2\n3 4\n", "line 2 has 2 values, header promises 4000000000"),
    ])
    def test_errors_name_physical_lines_and_sizes(self, tmp_path, content, expected):
        # blank lines are skipped but still counted, so the message points
        # at the line an editor shows
        path = tmp_path / "m.mat"
        path.write_text(content)
        with pytest.raises(InvalidInputError) as err:
            read_matrix(path)
        assert str(err.value) == f"{path}: {expected}"

    @pytest.mark.parametrize("token", [
        "1_0", "1__0", "_1", "1_", "nan", "-nan", "infinity", "-Infinity", "1e400", "-1e400",
        "\u0661\u0662", "\u0663.\u0665", "1,5", "0b1", "1j", "1e", "e1", ".5", "5.", "+1",
        "1E-5", "1_000.000_1", "2.5e-324", "4.9e-324", "1.7976931348623157e308",
    ])
    def test_decimal_language_is_float(self, tmp_path, token):
        # the decimal reader accepts exactly Python float() syntax, with
        # float()'s value, and rejects non-finite results
        path = tmp_path / "m.mat"
        path.write_text(f"2 1\n1\n{token}\n", encoding="utf-8")
        try:
            value = float(token)
        except ValueError:
            value = None
        if value is None or not np.isfinite(value):
            with pytest.raises(InvalidInputError) as err:
                read_matrix(path)
            assert "line 3, column 1" in str(err.value)
        else:
            out = read_matrix(path)
            assert out[1, 0].hex() == value.hex()

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_matrix(tmp_path / "absent.mat")

    def test_non_finite_write_rejected(self, tmp_path):
        M = np.eye(2)
        M[0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            write_matrix(tmp_path / "m.mat", M)


class TestManifest:
    def write_dataset(self, tmp_path, entries):
        lines = []
        for name, label, matrix in entries:
            write_matrix(tmp_path / name, matrix)
            lines.append(f"{name}\t{label}")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# comment line\n" + "\n".join(lines) + "\n")
        return manifest

    def test_order_and_labels(self, tmp_path):
        rng = np.random.default_rng(1)
        manifest_path = self.write_dataset(
            tmp_path,
            [("a.mat", 1, rng.standard_normal((6, 3))), ("b.mat", 0, rng.standard_normal((6, 2)))],
        )
        manifest = load_manifest(manifest_path)
        assert manifest.entries == [("a.mat", 1), ("b.mat", 0)]
        points = load_points(manifest, 2)
        assert [q.basis.tobytes() for q in points] == [
            orthonormalize(read_matrix(tmp_path / name), 2).basis.tobytes()
            for name in ("a.mat", "b.mat")]

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# nothing here\n")
        assert load_points(load_manifest(manifest)) == []

    def test_duplicate_entry(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.mat\t0\na.mat\t1\n")
        with pytest.raises(InvalidInputError):
            load_manifest(manifest)

    def test_missing_file_names_path(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("ghost.mat\t0\n")
        with pytest.raises(InvalidInputError) as err:
            load_points(load_manifest(manifest))
        assert str(err.value) == f"dataset file not found: {tmp_path / 'ghost.mat'}"

    def test_inconsistent_dimension(self, tmp_path):
        rng = np.random.default_rng(2)
        manifest_path = self.write_dataset(
            tmp_path,
            [("a.mat", 0, rng.standard_normal((6, 3))), ("b.mat", 1, rng.standard_normal((7, 3)))],
        )
        with pytest.raises(InvalidInputError) as err:
            load_points(load_manifest(manifest_path))
        assert str(err.value) == f"{tmp_path / 'b.mat'}: sample dimension 7 differs from 6"

    def test_negative_label_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.mat\t-1\n")
        with pytest.raises(InvalidInputError):
            load_manifest(manifest)


def write_sets(directory, mats, form="hex"):
    """Matrix files s0.mat, s1.mat, ... in ``form`` and their manifest, loaded."""
    lines = []
    for i, m in enumerate(mats):
        path = directory / f"s{i}.mat"
        if form == "hex":
            write_matrix(path, m)
        else:
            rows = "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in m)
            path.write_text(f"{m.shape[0]} {m.shape[1]}\n{rows}")
        lines.append(f"s{i}.mat\t{i % 2}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")
    return load_manifest(directory / "manifest.txt")


def rank_one(d, q):
    return np.outer(np.arange(1.0, d + 1.0), np.ones(q))


def set_with_constant_column(d, q, seed):
    m = np.random.default_rng(seed).standard_normal((d, q))
    m[:, 0] = 2.5
    return m


# (file index, replacement): None deletes the file, a string replaces its text,
# an array rewrites it; the expected error is that of the first entry in manifest
# order whose file cannot be read or whose basis cannot be built.  The caller
# builds entry 0, and entries 1-6 make chunks [1, 4) [4, 7) for two workers and
# [1, 3) [3, 5) [5, 7) for three.
LOADER_FAILURES = {
    "missing-in-two-worker-chunks": (
        [(4, None), (6, None)], False, "dataset file not found: {dir}/s4.mat"),
    "bad-token-before-missing": (
        [(5, "1 5\n1.0.0" + " 1" * 4 + "\n"), (6, None)], False,
        "{dir}/s5.mat: cannot parse value at line 2, column 1: '1.0.0'"),
    "chunk-0-wins": (
        [(1, "1 5\nx" + " 1" * 4 + "\n"), (4, None), (6, None)], False,
        "{dir}/s1.mat: cannot parse value at line 2, column 1: 'x'"),
    "dimension-at-chunk-starts": (
        [(3, np.ones((13, 5))), (5, np.ones((11, 5)))], False,
        "{dir}/s3.mat: sample dimension 13 differs from 12"),
    "build-error-before-later-read-error": (
        [(1, rank_one(12, 5)), (6, None)], False,
        "'s1.mat': numerical rank 1 is below requested dimension 2"),
    "entry-0-build-error-before-missing": (
        [(0, rank_one(12, 5)), (4, None)], False,
        "'s0.mat': numerical rank 1 is below requested dimension 2"),
    "constant-column-before-rank-deficiency": (
        [(2, set_with_constant_column(12, 5, 1)), (5, rank_one(12, 5))], True,
        "sample column 0 of 's2.mat' is constant; cannot standardize"),
    "rank-deficiency-in-a-worker": (
        [(5, rank_one(12, 5))], False,
        "'s5.mat': numerical rank 1 is below requested dimension 2"),
}


def patch_workers(monkeypatch, workers):
    monkeypatch.setattr(dataio, "load_workers", lambda manifest: workers)


class TestParallelLoader:
    """``load_points`` on 1, 2 or 3 processes: the serial loader's points and errors."""

    def mats(self):
        rng = np.random.default_rng(11)
        return [rng.standard_normal((12, 5)) for _ in range(7)]

    @pytest.mark.parametrize("form", ["hex", "decimal"])
    def test_points_bit_identical(self, tmp_path, monkeypatch, form):
        manifest = write_sets(tmp_path, self.mats(), form)
        expected = [build_point(read_matrix(tmp_path / rel), 5, False, rel).basis.tobytes()
                    for rel, _ in manifest.entries]
        calls, post_init = [], GrassmannPoint.__post_init__

        def counted(point):
            calls.append(point)  # a forked worker appends to its own copy
            post_init(point)

        monkeypatch.setattr(GrassmannPoint, "__post_init__", counted)
        # entry 0 is built here; 9 workers for the other 6 entries run as 6 chunks
        for workers, built_here in ((1, 7), (2, 1), (3, 1), (9, 1)):
            patch_workers(monkeypatch, workers)
            calls.clear()
            points = load_points(manifest)
            assert len(calls) == built_here
            assert [q.basis.tobytes() for q in points] == expected
            assert not any(q.basis.flags.writeable for q in points)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("case", sorted(LOADER_FAILURES))
    def test_first_failure_in_manifest_order(self, tmp_path, monkeypatch, case):
        changes, standardize, expected = LOADER_FAILURES[case]
        mats = self.mats()
        write_sets(tmp_path, mats)
        for index, replacement in changes:
            path = tmp_path / f"s{index}.mat"
            if replacement is None:
                os.remove(path)
            elif isinstance(replacement, str):
                path.write_text(replacement)
            else:
                write_matrix(path, replacement)
        manifest = load_manifest(tmp_path / "manifest.txt")
        raised = []
        for workers in (1, 2, 3):
            patch_workers(monkeypatch, workers)
            with pytest.raises(errors.GrassLrrError) as err:
                load_points(manifest, 2, standardize)
            assert str(err.value) == expected.format(dir=tmp_path)
            assert multiprocessing.active_children() == []
            raised.append(err.value)
        assert len({type(exc) for exc in raised}) == 1
        assert {vars(exc).get("achieved_rank") for exc in raised} in ({None}, {1})

    def test_serial_load_reads_then_embeds_each_entry(self, tmp_path, monkeypatch):
        manifest = write_sets(tmp_path, self.mats())
        calls, read_set, embed = [], dataio._read_set, dataio.build_point

        def counted_read(base_dir, rel, d):
            calls.append(("read", rel))
            return read_set(base_dir, rel, d)

        def counted_build(samples, p, standardize, name):
            calls.append(("build", name))
            return embed(samples, p, standardize, name)

        monkeypatch.setattr(dataio, "_read_set", counted_read)
        monkeypatch.setattr(dataio, "build_point", counted_build)
        patch_workers(monkeypatch, 1)
        load_points(manifest)
        assert calls == [(step, rel) for rel, _ in manifest.entries for step in ("read", "build")]

    def test_empty_manifest(self, tmp_path, monkeypatch):
        (tmp_path / "manifest.txt").write_text("# nothing\n")
        patch_workers(monkeypatch, 2)
        assert load_points(load_manifest(tmp_path / "manifest.txt")) == []


class TestLoadWorkers:
    """Forked loader workers: the shared CPU rule, one per LOAD_BYTES_PER_WORKER, no fork beside
    another thread or without os.fork."""

    @pytest.mark.parametrize("cpus, environ, items, work, floor, expected", [
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 400, 25 << 20, 2 << 20, 4),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 400, 25 << 20, 2 << 20, 2),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 500, 1 << 20, 2 << 20, 1),
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 400, 5 << 20, 2 << 20, 2),
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 3, 25 << 20, 2 << 20, 3),
        (4, {}, 400, 25 << 20, 2 << 20, 1),
        (4, {"OMP_NUM_THREADS": "2"}, 400, 25 << 20, 2 << 20, 2),
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 0, 0, 1, 1),
    ], ids=["four-cpus", "two-cpus", "below-floor", "floor-caps", "file-count-caps",
            "blas-unset", "two-blas-threads", "no-work"])
    def test_rule(self, cpus, environ, items, work, floor, expected):
        assert worker_count(cpus, environ, items, work, floor) == expected

    def test_probe(self, tmp_path, monkeypatch):
        manifest = write_sets(tmp_path, [np.eye(4)] * 5)
        size = sum(os.path.getsize(tmp_path / f"s{i}.mat") for i in range(5))
        monkeypatch.setattr(dataio, "system_cpus", lambda: 8)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert load_workers(manifest) == 1  # a few hundred bytes
        monkeypatch.setattr(dataio, "LOAD_BYTES_PER_WORKER", size // 3)
        assert load_workers(manifest) == 3
        os.remove(tmp_path / "s4.mat")  # a missing file counts no bytes
        assert load_workers(manifest) == 2
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert load_workers(manifest) == 1
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert load_workers(manifest) == 2
        monkeypatch.delattr(os, "fork")
        assert load_workers(manifest) == 1


class TestErrorPickling:
    """Every error class survives a round trip through pickle, as a worker's error must."""

    @pytest.mark.parametrize("cls", [
        value for value in vars(errors).values()
        if inspect.isclass(value) and issubclass(value, Exception)
        and value.__module__ == errors.__name__
    ], ids=lambda cls: cls.__name__)
    def test_round_trip(self, cls):
        extra = {"achieved_rank": 2} if cls is errors.RankDeficientError else {}
        exc = cls("message text", **extra)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == "message text"
        assert back.args == exc.args
        assert vars(back) == vars(exc) == extra


class TestBuildPoint:
    def test_orthonormal_columns_keep_span(self):
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        point = build_point(Q, 3, False, "s")
        assert np.linalg.norm(point.basis @ point.basis.T - Q @ Q.T) <= 1e-10

    def test_identical_columns(self):
        v = np.array([3.0, 0.0, 4.0])
        samples = np.stack([v, v, v], axis=1)
        point = build_point(samples, 1, False, "s")
        np.testing.assert_allclose(point.basis[:, 0], v / 5.0, atol=1e-12)

    def test_delegates_to_orthonormalize(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((10, 6))
        point = build_point(samples, 3, False, "s")
        direct = orthonormalize(samples, 3)
        assert np.array_equal(point.basis, direct.basis)

    def test_duplicated_columns_leave_span(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((9, 4))
        base = build_point(samples, 2, False, "s")
        doubled = build_point(np.hstack([samples, samples]), 2, False, "s2")
        assert grassmann_distance(base, doubled) <= 1e-7

    def test_standardize_flag(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((50, 4)) * 3.0 + 5.0
        point = build_point(samples, 2, True, "s")
        standardized = (samples - samples.mean(axis=0)) / samples.std(axis=0)
        direct = orthonormalize(standardized, 2)
        assert np.array_equal(point.basis, direct.basis)

    @pytest.mark.parametrize("scale", [1e300, 1e-200, 1e-300])
    def test_standardize_near_the_float64_limits(self, scale):
        # unscaled, the squares in a column's std overflow at 1e300 (a warning, then a false
        # rank deficiency) and underflow to a false constant column at 1e-200 and 1e-300
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 5))
        base = build_point(samples, 2, True, "s")
        scaled = build_point(samples * scale, 2, True, "s")
        gap = base.basis @ base.basis.T - scaled.basis @ scaled.basis.T
        assert np.max(np.abs(gap)) <= 1e-12

    def test_standardize_ignores_power_of_two_scales(self):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal((8, 5)) * 3.0 + 5.0
        base = build_point(samples, 2, True, "s")
        for e in (-1000, -60, 1, 60, 1000):
            scaled = build_point(np.ldexp(samples, e), 2, True, "s")
            assert np.array_equal(scaled.basis, base.basis)

    def test_standardize_constant_column(self):
        samples = np.ones((5, 2))
        with pytest.raises(InvalidInputError, match="column 0 of 's' is constant"):
            build_point(samples, 1, True, "s")

    def test_checks_the_matrix(self):
        samples = np.ones((4, 3))
        samples[2, 1] = np.nan
        with pytest.raises(InvalidInputError, match=r"samples\[s\] contains non-finite"):
            build_point(samples, 1, False, "s")
        with pytest.raises(InvalidInputError, match=r"samples\[s\] must be 2-D"):
            build_point(np.ones(4), 1, False, "s")


class TestSynthUnion:
    def test_zero_noise_collapses_clusters(self):
        spec = SynthSpec(n_clusters=3, per_cluster=4, d=12, p=2, noise_sigma=0.0, seed=7)
        points, labels = synth_union(spec)
        for c in range(3):
            members = [p for p, l in zip(points, labels) if l == c]
            for other in members[1:]:
                # the distance formula's cancellation floor is ~sqrt(eps)
                assert grassmann_distance(members[0], other) <= 1e-7

    def test_orthogonal_centers(self):
        spec = SynthSpec(
            n_clusters=2, per_cluster=3, d=10, p=2, noise_sigma=0.0, min_separation=90.0, seed=8
        )
        points, labels = synth_union(spec)
        cross = k_projection(points[0], points[3])
        assert cross <= 1e-8

    def test_min_separation_respected(self):
        spec = SynthSpec(
            n_clusters=3, per_cluster=2, d=20, p=2, noise_sigma=0.0, min_separation=45.0, seed=9
        )
        points, labels = synth_union(spec)
        reps = [points[0], points[2], points[4]]
        for i in range(3):
            for j in range(i + 1, 3):
                top = principal_angle_cosines(reps[i], reps[j])[0]
                assert np.degrees(np.arccos(min(top, 1.0))) >= 45.0 - 1e-6

    def test_distance_statistics(self):
        for seed in range(10):
            spec = SynthSpec(
                n_clusters=4, per_cluster=15, d=30, p=3, noise_sigma=0.05, seed=seed
            )
            points, labels = synth_union(spec)
            within, cross = [], []
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    d = grassmann_distance(points[i], points[j])
                    (within if labels[i] == labels[j] else cross).append(d)
            assert np.mean(within) < np.mean(cross)

    def test_bit_identical_per_seed(self):
        spec = SynthSpec(n_clusters=2, per_cluster=4, d=9, p=2, noise_sigma=0.1, seed=10)
        points1, labels1 = synth_union(spec)
        points2, labels2 = synth_union(spec)
        assert np.array_equal(labels1, labels2)
        for a, b in zip(points1, points2):
            assert np.array_equal(a.basis, b.basis)

    def test_zero_separation_builds_no_gram(self, monkeypatch):
        # every draw passes a zero separation, so no center Gram matrix is formed
        def refuse(*args, **kwargs):
            raise AssertionError("assemble_gram called")

        monkeypatch.setattr(dataio, "assemble_gram", refuse)
        spec = SynthSpec(n_clusters=3, per_cluster=2, d=6, p=2, noise_sigma=0.1, seed=12)
        points, labels = synth_union(spec)
        assert len(points) == 6 and list(labels) == [0, 0, 1, 1, 2, 2]

    def test_infeasible_separation(self):
        spec = SynthSpec(
            n_clusters=3, per_cluster=2, d=4, p=2, noise_sigma=0.0, min_separation=89.0, seed=11
        )
        with pytest.raises(InfeasibleSpecError):
            synth_union(spec)

    def test_orthogonal_needs_room(self):
        with pytest.raises(InvalidInputError):
            SynthSpec(n_clusters=3, per_cluster=2, d=4, p=2, min_separation=90.0, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sigma):
        with pytest.raises(InvalidInputError, match="noise_sigma must be finite"):
            SynthSpec(n_clusters=2, per_cluster=2, d=4, p=2, noise_sigma=sigma)


class TestResults:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((5, 5))
        labels = ClusterLabels(labels=np.array([0, 1, 0, 1, 1]), n_clusters=2)
        paths = save_results(tmp_path / "out", Z, labels, {"method": "glrr-f", "lambda": "0.5"})
        assert np.array_equal(read_matrix(paths["Z"]), Z)
        assert np.array_equal(read_labels(paths["labels"]), labels.labels)
        report = load_report(paths["report"])
        assert report["method"] == "glrr-f"
        assert report["lambda"] == "0.5"

    def test_eval_resumes_from_saved_files(self, tmp_path):
        truth_values = np.array([0, 0, 1, 1, 2, 2])
        pred_values = np.array([1, 1, 0, 0, 2, 2])
        truth = ClusterLabels(labels=truth_values, n_clusters=3)
        pred = ClusterLabels(labels=pred_values, n_clusters=3)
        direct = accuracy(pred, truth).accuracy
        write_labels(tmp_path / "pred.txt", pred_values)
        write_labels(tmp_path / "truth.txt", truth_values)
        reread_pred = read_labels(tmp_path / "pred.txt")
        reread_truth = read_labels(tmp_path / "truth.txt")
        resumed = accuracy(
            ClusterLabels(labels=reread_pred, n_clusters=3),
            ClusterLabels(labels=reread_truth, n_clusters=3),
        ).accuracy
        assert resumed == direct

    def test_labels_parse_errors(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n1\nx\n")
        with pytest.raises(InvalidInputError):
            read_labels(path)
        # int64's bounds are labels; one past either is a positioned input error
        path.write_text(f"{-2**63}\n{2**63 - 1}\n")
        assert read_labels(path).tolist() == [-2**63, 2**63 - 1]
        for label in (2**63, -2**63 - 1, 99999999999999999999):
            path.write_text(f"0\n\n{label}\n")
            with pytest.raises(InvalidInputError) as err:
                read_labels(path)
            assert str(err.value) == f"{path}: line 3 label '{label}' is outside int64"

    def test_labels_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_bytes(b"\xef\xbb\xbf0\r\n1\r\n")
        assert read_labels(path).tolist() == [0, 1]

    def test_report_non_utf8_names_line(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"method=glrr-f\nlambda=\xff\n")
        with pytest.raises(InvalidInputError, match="report.txt: line 2 is not valid UTF-8"):
            load_report(path)


class TestRng:
    def test_known_stream_is_stable(self):
        # frozen first outputs of the documented generator; any change here is
        # a breaking change for every stored fixture
        rng = SplitMix64(42)
        words = [rng.next_u64() for _ in range(3)]
        assert words == [13679457532755275413, 2949826092126892291, 5139283748462763858]

    def test_unit_range_and_determinism(self):
        a = SplitMix64(7)
        b = SplitMix64(7)
        for _ in range(100):
            u = a.unit()
            assert 0.0 <= u < 1.0
            assert u == b.unit()

    def test_gaussian_pairing(self):
        one = SplitMix64(3)
        g = [one.gaussian() for _ in range(4)]
        # pairs share the same radius draw
        two = SplitMix64(3)
        u1, u2 = two.unit(), two.unit()
        r = np.sqrt(-2.0 * np.log(u1))
        assert g[0] == pytest.approx(r * np.cos(2 * np.pi * u2), abs=0.0)
        assert g[1] == pytest.approx(r * np.sin(2 * np.pi * u2), abs=0.0)

    def test_substreams_differ(self):
        a = SplitMix64.substream(5, 0)
        b = SplitMix64.substream(5, 1)
        assert a.next_u64() != b.next_u64()

    def test_normal_matrix_row_major(self):
        a = SplitMix64(9)
        M = a.normal_matrix(2, 3)
        b = SplitMix64(9)
        flat = [b.gaussian() for _ in range(6)]
        assert M.reshape(-1).tolist() == flat

    def test_mix64_is_deterministic(self):
        assert mix64(0) == mix64(0)
        assert mix64(1) != mix64(2)
