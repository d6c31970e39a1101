import dataclasses
import importlib
import inspect
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import grasslrr

from grasslrr import accuracy as lib_accuracy
from grasslrr import ClusterLabels, clustering, dataio, read_labels, read_matrix, write_matrix
from grasslrr.cli import main
from oracles import load_report


def run_synth(tmp_path, seed=7, sigma="0.05"):
    out = tmp_path / f"data_{seed}"
    code = main(
        [
            "synth",
            "--clusters", "4",
            "--per-cluster", "15",
            "--d", "30",
            "--p", "3",
            "--sigma", sigma,
            "--seed", str(seed),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def count_calls(monkeypatch, module, name):
    """Count calls to grasslrr.<module>.<name> through every package namespace binding it."""
    fn = getattr(importlib.import_module(f"grasslrr.{module}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "grasslrr" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestSynthCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        assert (out / "manifest.txt").exists()
        assert (out / "truth.txt").exists()
        labels = read_labels(out / "truth.txt")
        assert labels.shape == (60,)
        assert "wrote 60 points" in capsys.readouterr().out
        first = read_matrix(out / "points" / "point_000.mat")
        assert first.shape == (30, 3)

    def test_zero_noise(self, tmp_path):
        out = run_synth(tmp_path, seed=1, sigma="0")
        labels = read_labels(out / "truth.txt")
        assert labels.shape == (60,)

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--clusters", "2", "--per-cluster", "3", "--d", "8", "--p", "2"])
        assert err.value.code == 2


class TestClusterCommand:
    def test_sweep_table_and_results(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        capsys.readouterr()
        out = tmp_path / "results"
        code = main(
            [
                "cluster",
                "--data", str(data),
                "--method", "glrr-f",
                "--lambda", "0.01,0.1,1,10",
                "--clusters", "4",
                "--seed", "7",
                "--truth", str(data / "truth.txt"),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["method", "lambda", "iterations", "converged", "accuracy"]
        rows = [ln.split() for ln in lines[1:]]
        assert [r[1] for r in rows] == ["0.01", "0.1", "1", "10"]
        accuracies = [float(r[4]) for r in rows]
        assert max(accuracies) >= 0.95
        for lam_text in ("0.01", "0.1", "1", "10"):
            sub = out / f"lam_{lam_text}"
            assert (sub / "Z.mat").exists()
            assert (sub / "labels.txt").exists()
            report = load_report(sub / "report.txt")
            assert report["method"] == "glrr-f"
            assert set(report) >= {"method", "lambda", "iterations", "converged",
                                   "accuracy", "clamp_magnitude", "rank_Z"}

    def test_single_lambda_writes_to_root(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=3)
        out = tmp_path / "single"
        code = main(
            [
                "cluster",
                "--data", str(data),
                "--method", "glrr-f",
                "--lambda", "0.1",
                "--clusters", "4",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "Z.mat").exists()
        report = load_report(out / "report.txt")
        assert "accuracy" not in report  # no truth given

    def test_kglrr_projection_matches_glrr_f(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=5)
        out_f = tmp_path / "rf"
        out_k = tmp_path / "rk"
        base = [
            "--data", str(data),
            "--lambda", "0.1",
            "--clusters", "4",
            "--seed", "5",
            "--truth", str(data / "truth.txt"),
        ]
        assert main(["cluster", "--method", "glrr-f", "--out", str(out_f)] + base) == 0
        row_f = capsys.readouterr().out.strip().splitlines()[-1].split()
        assert main(["cluster", "--method", "kglrr", "--kernel", "projection",
                     "--out", str(out_k)] + base) == 0
        row_k = capsys.readouterr().out.strip().splitlines()[-1].split()
        assert row_f[4] == row_k[4]
        assert np.array_equal(read_labels(out_f / "labels.txt"), read_labels(out_k / "labels.txt"))

    def test_glrr21_nonconvergence_is_not_failure(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=2)
        out = tmp_path / "r21"
        code = main(
            [
                "cluster",
                "--data", str(data),
                "--method", "glrr-21",
                "--lambda", "1.0",
                "--max-iters", "1",
                "--clusters", "4",
                "--seed", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split()
        assert row[2] == "1"
        assert row[3] == "false"
        assert load_report(out / "report.txt")["converged"] == "false"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=11)
        args = [
            "cluster",
            "--data", str(data),
            "--method", "glrr-f",
            "--lambda", "0.1",
            "--clusters", "4",
            "--seed", "11",
            "--truth", str(data / "truth.txt"),
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "Z.mat").read_bytes() == (out2 / "Z.mat").read_bytes()
        assert (out1 / "labels.txt").read_bytes() == (out2 / "labels.txt").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()

    def test_glrr21_byte_identical_reruns(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=13)
        args = ["cluster", "--data", str(data), "--method", "glrr-21", "--lambda", "1,3",
                "--clusters", "4", "--seed", "13", "--truth", str(data / "truth.txt")]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("lam_1/Z.mat", "lam_1/labels.txt", "lam_1/report.txt",
                     "lam_3/Z.mat", "lam_3/labels.txt", "lam_3/report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_truth_ids_need_not_be_contiguous(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=13)
        sparse = tmp_path / "sparse_truth.txt"
        sparse.write_text("".join(f"{100 * v + 7}\n" for v in read_labels(data / "truth.txt")))
        base = ["cluster", "--data", str(data), "--method", "glrr-f", "--lambda", "0.1",
                "--clusters", "4", "--seed", "13"]
        capsys.readouterr()
        assert main(base + ["--truth", str(data / "truth.txt"), "--out", str(tmp_path / "d")]) == 0
        dense_out = capsys.readouterr().out
        assert main(base + ["--truth", str(sparse), "--out", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().out == dense_out
        for name in ("Z.mat", "labels.txt", "report.txt"):
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()

    def test_cli_accuracy_equals_library(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=13)
        out = tmp_path / "racc"
        assert main(
            [
                "cluster",
                "--data", str(data),
                "--method", "glrr-f",
                "--lambda", "0.1",
                "--clusters", "4",
                "--seed", "13",
                "--truth", str(data / "truth.txt"),
                "--out", str(out),
            ]
        ) == 0
        printed = float(capsys.readouterr().out.strip().splitlines()[-1].split()[4])
        pred = read_labels(out / "labels.txt")
        truth = read_labels(data / "truth.txt")
        direct = lib_accuracy(
            ClusterLabels(labels=pred, n_clusters=int(pred.max()) + 1),
            ClusterLabels(labels=truth, n_clusters=int(truth.max()) + 1),
        ).accuracy
        assert printed == float(f"{direct:.4f}")
        report = load_report(out / "report.txt")
        assert float(report["accuracy"]) == direct

    def test_unknown_method_usage_error(self, tmp_path):
        data = run_synth(tmp_path, seed=17)
        with pytest.raises(SystemExit) as err:
            main(["cluster", "--data", str(data), "--method", "glrr-x",
                  "--lambda", "1", "--clusters", "4", "--out", str(data / "o")])
        assert err.value.code == 2

    def test_bad_lambda_is_input_error(self, tmp_path):
        data = run_synth(tmp_path, seed=19)
        code = main(["cluster", "--data", str(data), "--method", "glrr-f",
                     "--lambda", "-2", "--clusters", "4", "--out", str(data / "o")])
        assert code == 2

    @pytest.mark.parametrize("method", ["glrr-f", "glrr-21"])
    def test_non_finite_lambda_is_input_error(self, tmp_path, capsys, method):
        data = run_synth(tmp_path, seed=19)
        for lam in ("inf", "0.5,inf", "1e400", "nan"):
            code = main(["cluster", "--data", str(data), "--method", method,
                         "--lambda", lam, "--clusters", "4", "--out", str(tmp_path / "o")])
            assert code == 2
            assert "finite" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_lambda_directory_collision_is_input_error(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=19)
        for lams in ("1,1.0000001", "1,1", "0.5,1,1.0"):
            out = tmp_path / "collide"
            code = main(["cluster", "--data", str(data), "--method", "glrr-f",
                         "--lambda", lams, "--clusters", "4", "--out", str(out)])
            assert code == 2
            assert "lam_1" in capsys.readouterr().err
            assert not out.exists()

    def test_svd_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        data = run_synth(tmp_path, seed=23)
        real_svd, real_eigh = np.linalg.svd, np.linalg.eigh

        def fail_on_coefficients(a, *args, **kwargs):
            # only the 60 x 60 coefficient matrices; 30 x 3 bases still load
            if np.shape(a) == (60, 60):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        gram_calls = []

        def fail_on_gram_side(a, *args, **kwargs):
            # the SVT's eigh of the 60 x 60 Gram side of its argument; the
            # first 60 x 60 eigh is the solve's decomposition of the Gram matrix
            if np.shape(a) == (60, 60):
                gram_calls.append(1)
                if len(gram_calls) > 1:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(a, *args, **kwargs)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("numpy.linalg.eigh", fail_on_gram_side)
        monkeypatch.setattr("numpy.linalg.svd", fail_on_coefficients)
        monkeypatch.setattr("scipy.linalg.svd", fail)
        capsys.readouterr()
        code = main(["cluster", "--data", str(data), "--method", "glrr-21", "--lambda", "1",
                     "--max-iters", "5", "--clusters", "4", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "iteration 1: SVD did not converge" in capsys.readouterr().err

    def test_glrr21_n500_single_thread_no_crash(self, tmp_path):
        # with one OpenBLAS thread, numpy's gesdd failed to converge on an SVT
        # argument of this run at iteration 69 (gesvd then took over); the SVT
        # now serves all 80 iterations from eigh. The CLI must honour 0/2/3
        data = tmp_path / "n500"
        assert main(["synth", "--clusters", "10", "--per-cluster", "50", "--d", "30",
                     "--p", "3", "--sigma", "0.05", "--seed", "1", "--out", str(data)]) == 0
        src = os.path.dirname(os.path.dirname(grasslrr.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "grasslrr.cli", "cluster", "--data", str(data),
             "--method", "glrr-21", "--lambda", "1", "--clusters", "10",
             "--max-iters", "80", "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_dataset(self, tmp_path):
        code = main(["cluster", "--data", str(tmp_path / "nope"), "--method", "glrr-f",
                     "--lambda", "1", "--clusters", "4", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_divergence_exit_code(self, tmp_path, capsys):
        # legal settings whose uncapped penalty overflows to inf at iteration 2,
        # so inf times the residual makes the multiplier non-finite
        data = run_synth(tmp_path, seed=23)
        capsys.readouterr()
        code = main(["cluster", "--data", str(data), "--method", "glrr-21",
                     "--lambda", "1", "--clusters", "4", "--out", str(tmp_path / "o"),
                     "--mu0", "1e10", "--rho0", "1e308", "--mu-max", "inf",
                     "--eps1", "1e-300", "--eps2", "1e308"])
        out, err = capsys.readouterr()
        assert code == 3
        assert err == "error: non-finite iterate at iteration 2\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_abbreviated_flag_is_usage_error(self, tmp_path):
        # an abbreviation would slip past --config's explicit-flag check and
        # let the file's max-iters=7 win over --max 2
        data = run_synth(tmp_path, seed=31)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-iters=7\n")
        args = ["cluster", "--config", str(cfg), "--data", str(data), "--method", "glrr-21",
                "--lambda", "1", "--clusters", "4", "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as err:
            main(args + ["--max", "2"])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()
        assert main(args + ["--max-iters", "2"]) == 0
        assert load_report(tmp_path / "o" / "report.txt")["iterations"] == "2"

    def test_config_file_defaults(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=29)
        out = tmp_path / "rcfg"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"max-iters=7\nseed=29\ntruth={data / 'truth.txt'}\n")
        # --max-iters on the command line must override the file entry
        code = main(["cluster", "--config", str(cfg), "--data", str(data),
                     "--method", "glrr-21", "--lambda", "1", "--max-iters", "3",
                     "--clusters", "4", "--out", str(out)])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split()
        assert row[2] == "3"
        report = load_report(out / "report.txt")
        assert report["iterations"] == "3"
        # seed/truth came from the file
        assert "accuracy" in report

    def test_config_file_unknown_key(self, tmp_path):
        data = run_synth(tmp_path, seed=31)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble=1\n")
        code = main(["cluster", "--config", str(cfg), "--data", str(data),
                     "--method", "glrr-f", "--lambda", "1",
                     "--clusters", "4", "--out", str(tmp_path / "o")])
        assert code == 2


class TestConfigPrecedence:
    """A --config entry is a default: it applies unless the flag is in argv."""

    def cluster(self, data, out, *extra):
        return main(["cluster", "--data", str(data), "--clusters", "4", "--out", str(out),
                     *extra])

    def test_equals_form_flag_beats_file(self, tmp_path, capsys):
        data = run_synth(tmp_path, seed=43)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-iters=7\n")
        assert self.cluster(data, tmp_path / "o", "--config", str(cfg), "--method", "glrr-21",
                            "--lambda", "1", "--max-iters=2") == 0
        assert load_report(tmp_path / "o" / "report.txt")["iterations"] == "2"

    def test_file_max_iters_applies_without_flag(self, tmp_path):
        data = run_synth(tmp_path, seed=43)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-iters=7\n")
        assert self.cluster(data, tmp_path / "o", "--config", str(cfg), "--method", "glrr-21",
                            "--lambda", "1") == 0
        assert load_report(tmp_path / "o" / "report.txt")["iterations"] == "7"

    @pytest.mark.parametrize("entry, flags, extra", [
        ("standardize=true", ["--standardize"], ["--method", "glrr-f"]),
        ("alpha=0.3", ["--alpha", "0.3"], ["--method", "kglrr", "--kernel", "ccp"]),
        ("standardize=no", [], ["--method", "glrr-f"]),
    ])
    def test_file_entry_equals_flag(self, tmp_path, capsys, entry, flags, extra):
        data = run_synth(tmp_path, seed=43)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        common = ["--lambda", "0.1", *extra]
        assert self.cluster(data, tmp_path / "file", "--config", str(cfg), *common) == 0
        assert self.cluster(data, tmp_path / "flag", *flags, *common) == 0
        assert self.cluster(data, tmp_path / "plain", *common) == 0
        z_file = (tmp_path / "file" / "Z.mat").read_bytes()
        assert z_file == (tmp_path / "flag" / "Z.mat").read_bytes()
        # an entry that sets a flag moves Z; one that gives the flag's default does not
        assert (z_file == (tmp_path / "plain" / "Z.mat").read_bytes()) == (not flags)

    # the five required flags must be on the command line, so no default sets them
    @pytest.mark.parametrize("entry", ["help=1", "config=x", "data=x", "method=glrr-21",
                                       "lambda=0.5", "clusters=9", "out=x"])
    def test_non_setting_keys_are_unknown(self, tmp_path, capsys, entry):
        data = run_synth(tmp_path, seed=43)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        capsys.readouterr()
        assert self.cluster(data, tmp_path / "o", "--config", str(cfg), "--method", "glrr-f",
                            "--lambda", "1") == 2
        assert "line 1: unknown config entry" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_entry_fails_even_when_flag_given(self, tmp_path, capsys):
        # every entry is converted, so whether a file is valid does not depend on argv
        data = run_synth(tmp_path, seed=43)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=x\n")
        capsys.readouterr()
        assert self.cluster(data, tmp_path / "o", "--config", str(cfg), "--seed", "3",
                            "--method", "glrr-f", "--lambda", "1") == 2
        assert "line 1: bad value for seed: 'x'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def force_workers(monkeypatch, count):
    """Make every sweep solve ``count`` lambda values at once, whatever the machine."""
    monkeypatch.setattr(clustering, "_system_workers", lambda n_lambdas, n: count)


class TestSweepBuildsOnce:
    """A λ sweep builds its Gram matrix and its eigendecomposition once, for every
    method, also with two λ values in flight; each λ's ncut adds its Laplacian's."""

    @pytest.mark.parametrize("method, lambdas, extra", [
        ("glrr-f", "0.1,0.5,1", []),
        ("kglrr", "0.1,0.5,1", ["--kernel", "cc-sum"]),
        ("glrr-21", "0.5,1", ["--max-iters", "10"]),
    ], ids=["glrr-f", "kglrr", "glrr-21"])
    def test_one_gram_one_eigendecomposition(self, tmp_path, monkeypatch, method, lambdas,
                                             extra):
        data = run_synth(tmp_path, seed=37)
        force_workers(monkeypatch, 2)
        grams = count_calls(monkeypatch, "kernels", "assemble_gram")
        clamps = count_calls(monkeypatch, "kernels", "psd_clamp")
        eigs = count_calls(monkeypatch, "manifold", "sym_eig")
        code = main(["cluster", "--data", str(data), "--method", method,
                     "--lambda", lambdas, "--clusters", "4",
                     "--out", str(tmp_path / "o")] + extra)
        assert code == 0
        for lam in lambdas.split(","):
            assert (tmp_path / "o" / f"lam_{lam}" / "Z.mat").exists()
        assert len(grams) == 1
        assert len(clamps) == 1
        assert len(eigs) == 1 + len(lambdas.split(","))


class TestSweepFailure:
    def test_failed_write_joins_the_sweep_before_the_error(self, tmp_path, monkeypatch,
                                                           capsys):
        data = run_synth(tmp_path, seed=37)
        force_workers(monkeypatch, 2)
        real = grasslrr.cli.save_results
        writes = []

        def failing_second(out_dir, *args):
            writes.append(out_dir)
            if len(writes) == 2:
                raise OSError(f"{out_dir}: disk full")
            return real(out_dir, *args)

        class Stderr:
            """Records the live thread count at each write of the error message."""

            def __init__(self):
                self.text, self.threads = "", []

            def write(self, text):
                self.text += text
                self.threads.append(threading.active_count())

        monkeypatch.setattr(grasslrr.cli, "save_results", failing_second)
        capsys.readouterr()
        before = threading.active_count()
        stderr = Stderr()
        monkeypatch.setattr(sys, "stderr", stderr)
        code = main(["cluster", "--data", str(data), "--method", "glrr-f",
                     "--lambda", "0.01,0.1,1,10", "--clusters", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert stderr.text.startswith("error:") and "disk full" in stderr.text
        # the sweep's threads are joined before the error is printed
        assert stderr.threads and set(stderr.threads) == {before}
        out = capsys.readouterr().out
        assert out.splitlines() == ["method lambda iterations converged accuracy",
                                    "glrr-f 0.01 - - -"]
        assert (tmp_path / "o" / "lam_0.01" / "Z.mat").exists()
        for lam in ("0.1", "1", "10"):
            assert not (tmp_path / "o" / f"lam_{lam}").exists()


class TestEvalCommand:
    def test_identical_files(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        path.write_text("0\n1\n1\n0\n")
        assert main(["eval", "--pred", str(path), "--truth", str(path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy 1.0000 (100.00%)" in out
        assert "confusion" in out

    def test_matches_library_accuracy(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n0\n1\n1\n2\n2\n")
        truth.write_text("1\n1\n2\n0\n0\n2\n")
        assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        direct = lib_accuracy(
            ClusterLabels(labels=read_labels(pred), n_clusters=3),
            ClusterLabels(labels=read_labels(truth), n_clusters=3),
        ).accuracy
        assert printed.startswith(f"accuracy {direct:.4f}")

    def test_ids_need_not_be_contiguous(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n0\n1\n1\n")
        truth.write_text("10\n10\n20\n20\n")
        assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == ("accuracy 1.0000 (100.00%)\nconfusion (rows: predicted, cols: true):\n"
                       "2 0\n0 2\n")
        # ids are ranked, not read as cluster numbers: -5 < 7 < 30
        truth.write_text("30\n-5\n-5\n7\n")
        assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
        assert capsys.readouterr().out == (
            "accuracy 0.5000 (50.00%)\nconfusion (rows: predicted, cols: true):\n"
            "1 0 1\n1 1 0\n0 0 0\n")

    def test_length_mismatch(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n1\n")
        b.write_text("0\n1\n0\n")
        assert main(["eval", "--pred", str(a), "--truth", str(b)]) == 2

    def test_missing_file(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("0\n")
        assert main(["eval", "--pred", str(a), "--truth", str(tmp_path / "nope.txt")]) == 2


# (target, content, text expected in the message); targets: "manifest" and
# "matrix" (the first point's file) of a dataset, "truth" (cluster --truth),
# "pred" (eval --pred), "config" (cluster --config)
MALFORMED_INPUTS = {
    "manifest-non-utf8": ("manifest", b"points/point_000.mat\t0\n\xff\t1\n", "line 2"),
    "manifest-short-row": ("manifest", b"points/point_000.mat\n", "line 1"),
    "manifest-non-numeric": ("manifest", b"points/point_000.mat\tone\n", "line 1"),
    "manifest-nan": ("manifest", b"points/point_000.mat\tnan\n", "line 1"),
    "manifest-inf": ("manifest", b"points/point_000.mat\tinf\n", "line 1"),
    "matrix-non-utf8": ("matrix", b"2 2\n1 0\n0 \xff\n", "line 3"),
    "matrix-short-row": ("matrix", b"2 2\n1 0\n0\n", "line 3"),
    "matrix-non-numeric": ("matrix", b"2 2\n1 zero\n0 1\n", "line 2"),
    "matrix-nan": ("matrix", b"2 2\nnan 0\n0 1\n", "line 2"),
    "matrix-inf": ("matrix", b"2 2\n1 0\n0 -inf\n", "line 3"),
    # float.fromhex raises OverflowError where float() gives inf
    "matrix-hex-overflow": ("matrix", b"2 2\n0x1p+2000 0x0p+0\n0x0p+0 0x1p+0\n",
                            "non-finite value at line 2, column 1"),
    "matrix-mixed-hex-overflow": ("matrix", b"2 2\n1 0\n0 -0X1P+1024\n",
                                  "non-finite value at line 3, column 2"),
    "matrix-header-rows": ("matrix", b"3 2\n1 0\n0 1\n", "3 rows"),
    "matrix-header-text": ("matrix", b"two 2\n1 0\n0 1\n", "header"),
    "matrix-header-zero-rows": ("matrix", b"0 3\n", "header dimensions must be positive"),
    "matrix-empty": ("matrix", b"", "empty matrix file"),
    "truth-non-utf8": ("truth", b"0\n\xff\n", "line 2"),
    "truth-non-numeric": ("truth", b"0\nB\n", "line 2"),
    "truth-nan": ("truth", b"nan\n", "line 1"),
    "truth-short": ("truth", b"0\n1\n", "2 labels"),
    "truth-outside-int64": ("truth", b"0\n99999999999999999999\n", "line 2 label"),
    "pred-non-utf8": ("pred", b"\xff\n", "line 1"),
    "pred-bom-then-non-utf8": ("pred", b"\xef\xbb\xbf\xff\n", "line 1"),
    "pred-non-numeric": ("pred", b"0\n0.5\n", "line 2"),
    "pred-inf": ("pred", b"0\ninf\n", "line 2"),
    "pred-short": ("pred", b"0\n", "length"),
    "pred-outside-int64": ("pred", b"0\n-9223372036854775809\n", "line 2 label"),
    "config-non-utf8": ("config", b"seed=1\nrestarts=\xff\n", "line 2"),
    "config-non-utf8-cr-only": ("config", b"seed=1\rrestarts=\xff\r", "line 2"),
    "config-unknown-key": ("config", b"wibble=1\n", "line 1"),
    # a comment line is skipped, whatever it holds, but counted
    "config-comment-then-bad-entry": ("config", b"# wibble=1\nseed=x\n",
                                      "line 2: bad value for seed"),
    "config-missing-equals": ("config", b"seed\n", "line 1"),
    "config-bad-int": ("config", b"seed=x\n", "line 1: bad value for seed"),
    "config-bad-float": ("config", b"seed=1\nalpha=half\n", "line 2: bad value for alpha"),
    "config-nan-int": ("config", b"restarts=nan\n", "line 1: bad value for restarts"),
    "config-inf-int": ("config", b"p=inf\n", "line 1: bad value for p"),
    "config-standardize-typo": ("config", b"standardize=ture\n",
                                "line 1: bad value for standardize"),
    "config-standardize-empty": ("config", b"standardize=\n",
                                 "line 1: bad value for standardize"),
    "manifest-comment-only": ("manifest", b"# no points\n", "lists no data"),
}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "data"
    assert main(["synth", "--clusters", "2", "--per-cluster", "3", "--d", "6", "--p", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_exit_2(case, small_dataset, tmp_path, capsys):
    target, content, expected = MALFORMED_INPUTS[case]
    data = tmp_path / "data"
    shutil.copytree(small_dataset, data)
    bad = {
        "manifest": data / "manifest.txt",
        "matrix": data / "points" / "point_000.mat",
    }.get(target, tmp_path / f"bad_{target}")
    bad.write_bytes(content)
    if target == "pred":
        argv = ["eval", "--pred", str(bad), "--truth", str(data / "truth.txt")]
    else:
        argv = ["cluster", "--data", str(data), "--method", "glrr-f", "--lambda", "1",
                "--clusters", "2", "--out", str(tmp_path / "o")]
        if target == "truth":
            argv += ["--truth", str(bad)]
        elif target == "config":
            argv += ["--config", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:"), err
    assert "Traceback" not in err
    assert bad.name in err
    assert expected in err


@pytest.mark.parametrize("method, extra", [
    ("glrr-f", []),
    ("kglrr", ["--kernel", "cc-sum"]),
    ("glrr-21", ["--max-iters", "20"]),
])
def test_cluster_run_loads_no_scipy(method, extra, tmp_path):
    # scipy is imported only when numpy's gesdd fails; a normal run, scored
    # against --truth, must not load it
    data = run_synth(tmp_path, seed=41)
    argv = ["cluster", "--data", str(data), "--method", method, "--lambda", "0.5,1",
            "--clusters", "4", "--truth", str(data / "truth.txt"),
            "--out", str(tmp_path / "o")] + extra
    script = (
        "import sys\n"
        "from grasslrr.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(code, len(loaded), sorted(loaded)[:5])\n"
    )
    src = os.path.dirname(os.path.dirname(grasslrr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 []"


def test_one_lambda_run_starts_no_thread_pool(tmp_path):
    # concurrent.futures is imported only for a sweep with several λ values in flight,
    # so importing the CLI and a one-λ run, with BLAS threads to spare, stay without it
    data = run_synth(tmp_path, seed=41)
    argv = ["cluster", "--data", str(data), "--method", "glrr-f", "--lambda", "0.5",
            "--clusters", "4", "--out", str(tmp_path / "o")]
    script = (
        "import sys\n"
        "from grasslrr.cli import main\n"
        "imported = 'concurrent.futures' in sys.modules\n"
        f"code = main({argv!r})\n"
        "print(code, imported, 'concurrent.futures' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(grasslrr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"


@pytest.mark.parametrize("method, extra", [
    ("glrr-f", []),
    ("glrr-21", ["--max-iters", "20"]),
    ("kglrr", ["--kernel", "cc-sum"]),
])
def test_small_run_forks_no_worker_and_starts_no_thread(method, extra, tmp_path):
    # 60 hex files of a few KB are far below a loader worker's byte floor, and
    # 60 points below a Gram-row thread's pair floor, so with CPUs to spare a
    # one-lambda run imports no multiprocessing and starts no thread
    data = run_synth(tmp_path, seed=41)
    argv = ["cluster", "--data", str(data), "--method", method, "--lambda", "0.5",
            "--clusters", "4", "--out", str(tmp_path / "o")] + extra
    script = (
        "import sys, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self.name), start(self))[1]\n"
        "from grasslrr.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'multiprocessing' in sys.modules, started)\n"
    )
    src = os.path.dirname(os.path.dirname(grasslrr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False []"


def fail_in_workers(monkeypatch, failure):
    """Run ``failure(path)`` instead of read_matrix in forked loader workers only, with three
    of them."""
    parent, real = os.getpid(), dataio.read_matrix

    def read_matrix_here(path):
        return real(path) if os.getpid() == parent else failure(path)

    monkeypatch.setattr(dataio, "read_matrix", read_matrix_here)
    monkeypatch.setattr(dataio, "load_workers", lambda manifest: 3)


class TestLoaderWorkerFailure:
    """A worker that runs out of memory or dies gives exit 2 and a message, never a traceback,
    and no worker is left running."""

    def run(self, small_dataset, tmp_path, capsys):
        capsys.readouterr()
        threads = threading.active_count()
        code = main(["cluster", "--data", str(small_dataset), "--method", "glrr-f",
                     "--lambda", "1", "--clusters", "2", "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert not (tmp_path / "o").exists()
        return err

    def test_out_of_memory(self, small_dataset, tmp_path, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError("Unable to allocate 1.00 GiB for an array with shape "
                              "(134217728,) and data type float64")

        fail_in_workers(monkeypatch, exhausted)
        err = self.run(small_dataset, tmp_path, capsys)
        assert err == ("error: out of memory: Unable to allocate 1.00 GiB for an array with "
                       "shape (134217728,) and data type float64\n")

    def test_worker_dies(self, small_dataset, tmp_path, monkeypatch, capsys):
        fail_in_workers(monkeypatch, lambda path: os._exit(9))
        err = self.run(small_dataset, tmp_path, capsys)
        assert err.startswith("error: a worker process loading the dataset stopped: "), err
        assert err.count("\n") == 1


PUBLIC_NAMES = {
    "AdmmConfig", "AdmmReport", "admm_solve", "dense_reference", "svt",
    "ClosedFormReport", "LowRankCoefficients", "build_delta", "glrr_f_solve",
    "ClusterLabels", "NcutConfig", "affinity_from_Z", "cluster_pipeline", "cluster_sweep",
    "kmeans", "ncut",
    "Manifest", "SynthSpec", "build_point", "load_manifest",
    "read_labels", "read_matrix", "save_results", "synth_union", "write_labels", "write_matrix",
    "GrassLrrError", "InfeasibleSpecError", "InvalidConfigError", "InvalidInputError",
    "NumericalDivergenceError", "OracleTooLargeError", "RankDeficientError",
    "accuracy", "hungarian",
    "KernelMatrix", "KernelSpec", "gram", "kernel_sqrt",
    "GrassmannPoint", "orthonormalize", "project_embed", "sym_eig",
    "SplitMix64",
}


def test_package_exports_exactly_the_public_names():
    # result types and helpers are imported from their modules
    # (grasslrr.admm.AdmmState, grasslrr.kernels.psd_clamp, ...)
    exported = {name for name, value in vars(grasslrr).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(PUBLIC_NAMES) == 44
    assert exported == PUBLIC_NAMES


def test_result_records_hold_only_what_the_pipeline_reads():
    # what only tests read lives in tests/: the principal-angle oracle, the
    # solver state's formed N x N matrices and the report fields that repeat
    # the caller's lambda, the KernelMatrix's spectrum or the objective's terms
    assert [f.name for f in dataclasses.fields(grasslrr.ClosedFormReport)] == [
        "kept_count", "objective_value"]
    assert [f.name for f in dataclasses.fields(grasslrr.evaluation.EvalReport)] == [
        "accuracy", "confusion"]
    assert not [name for name, value in vars(grasslrr.admm.AdmmState).items()
                if isinstance(value, property)]
    assert not hasattr(grasslrr.kernels, "principal_angle_cosines")


def no_load(monkeypatch):
    """Make any matrix file read fail the test: a setting must be refused before the load."""
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix file was read before the settings were checked")

    monkeypatch.setattr("grasslrr.cli.load_points", refuse)


EVERY_METHOD = (["glrr-f"], ["glrr-21"], ["kglrr", "--kernel", "cc-sum"])


@pytest.mark.parametrize("flag, value", [
    ("--eps1", "inf"), ("--eps2", "inf"), ("--eps1", "nan"), ("--rho0", "inf"),
    ("--rho0", "nan"), ("--mu0", "inf"), ("--mu0", "nan"), ("--mu-max", "nan"),
])
def test_non_finite_admm_setting_is_exit_2(flag, value, small_dataset, tmp_path, monkeypatch,
                                           capsys):
    # an infinite tolerance used to stop after one iteration and report
    # converged=true with a meaningless Z; every method refuses it, unread or not
    no_load(monkeypatch)
    for method in EVERY_METHOD:
        capsys.readouterr()
        code = main(["cluster", "--data", str(small_dataset), "--method", *method,
                     "--lambda", "1", "--clusters", "2", "--max-iters", "5",
                     "--out", str(tmp_path / "o"), flag, value])
        err = capsys.readouterr().err
        assert code == 2, method
        assert err.startswith("error:"), err
        assert "Traceback" not in err
        assert flag[2:].replace("-", "_") in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", EVERY_METHOD, ids=["glrr-f", "glrr-21", "kglrr-cc-sum"])
def test_eta_is_not_a_setting(method, small_dataset, tmp_path, monkeypatch, capsys):
    # the step size is fixed at ETA_MARGIN times the largest Gram eigenvalue,
    # so neither the flag nor the config key exists
    no_load(monkeypatch)
    argv = ["cluster", "--data", str(small_dataset), "--method", *method, "--lambda", "1",
            "--clusters", "2", "--out", str(tmp_path / "o")]
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv + ["--eta", "1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --eta 1" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\neta=1\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 2: unknown config entry 'eta=1'\n"
    assert not (tmp_path / "o").exists()


def test_unbounded_mu_max_is_allowed(small_dataset, tmp_path):
    assert main(["cluster", "--data", str(small_dataset), "--method", "glrr-21",
                 "--lambda", "1", "--clusters", "2", "--max-iters", "5", "--mu-max", "inf",
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("method", ["glrr-f", "kglrr", "glrr-21"])
def test_out_of_memory_is_exit_2(method, small_dataset, tmp_path, monkeypatch, capsys):
    # stands in for the N x N allocation of a too-large run, without making one
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 11.9 GiB for an array with shape "
                          "(40000, 40000) and data type float64")

    monkeypatch.setattr("grasslrr.kernels.assemble_gram", exhausted)
    capsys.readouterr()
    code = main(["cluster", "--data", str(small_dataset), "--method", method,
                 "--lambda", "1", "--clusters", "2", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: out of memory: Unable to allocate 11.9 GiB"), err
    assert "Traceback" not in err


# before_load: the setting is checked before any matrix file is read
@pytest.mark.parametrize("argv, expected, before_load", [
    (["--lambda", ","], "no lambda values given", True),
    (["--lambda", "1,x"], "bad lambda value 'x'", True),
    (["--lambda", "1", "--kmeans-max-iters", "0"], "max_iters must be >= 1", True),
    (["--lambda", "1", "--kmeans-max-iters", "-3"], "max_iters must be >= 1", True),
    (["--lambda", "1", "--config", "{tmp}/missing.cfg"], "config file not found", True),
    (["--lambda", "1", "--clusters", "40"], "cannot split 6 points into 40 clusters", False),
    (["--lambda", "1", "--method", "glrr-21", "--max-iters", "0"], "max-iters must be at least 1",
     True),
    (["--lambda", "1", "--data", "{tmp}"], "manifest not found", False),
    (["--lambda", "1", "--truth", "{tmp}/missing.txt"], "labels file not found", False),
    # every method's kernel spec and ADMM config are built, so checked, read or not
    (["--lambda", "1", "--kernel", "ccp", "--alpha", "2"],
     "ccp blend weight must be in (0,1), got 2.0", True),
    (["--lambda", "1", "--method", "kglrr", "--kernel", "cc-sum", "--mu0", "nan"],
     "mu0 must be finite, got nan", True),
    (["--lambda", "1", "--max-iters", "0"], "max-iters must be at least 1, got 0", True),
    (["--lambda", "1", "--clusters", "1"], "need at least 2 clusters, got 1", True),
    (["--lambda", "1", "--restarts", "0"], "restarts must be >= 1", True),
    (["--lambda", "1", "--p", "0"], "p must be at least 1, got 0", True),
    # alpha is range-checked for every kernel, though only ccp reads it
    (["--lambda", "1", "--alpha", "nan"], "blend weight must be in (0,1), got nan", True),
    (["--lambda", "1", "--method", "glrr-21", "--alpha", "2"],
     "blend weight must be in (0,1), got 2.0", True),
    (["--lambda", "1", "--method", "kglrr", "--kernel", "cc-sum", "--config", "cfg:alpha=-1"],
     "blend weight must be in (0,1), got -1.0", True),
    # argparse checks a flag against its choices, but not a default --config sets
    (["--lambda", "1", "--config", "cfg:kernel=foo"], "unknown kernel kind 'foo'", True),
    # a key set twice is refused, not won by its last line, whether or not the values agree
    (["--lambda", "1", "--config", "cfg:seed=1\nseed=2"],
     "run.cfg: line 2: seed is already set on line 1", True),
    (["--lambda", "1", "--config", "cfg:standardize=yes\n# off\nstandardize=no"],
     "run.cfg: line 3: standardize is already set on line 1", True),
], ids=["lambda-empty-list", "lambda-non-numeric", "kmeans-max-iters-0",
        "kmeans-max-iters-negative", "config-missing", "clusters-above-n",
        "glrr-21-max-iters-0", "data-dir-without-manifest", "truth-missing",
        "glrr-f-ccp-alpha-2", "kglrr-mu0-nan", "glrr-f-max-iters-0", "clusters-1",
        "restarts-0", "p-0", "glrr-f-alpha-nan", "glrr-21-alpha-2", "kglrr-cc-sum-config-alpha",
        "config-kernel-foo", "config-seed-twice", "config-standardize-twice"])
def test_cluster_setting_is_exit_2(argv, expected, before_load, small_dataset, tmp_path,
                                   monkeypatch, capsys):
    if before_load:
        no_load(monkeypatch)

    def arg(text):
        if text.startswith("cfg:"):  # a --config file of these lines
            (tmp_path / "run.cfg").write_text(text[4:] + "\n")
            return str(tmp_path / "run.cfg")
        return text.format(tmp=tmp_path)

    capsys.readouterr()
    code = main(["cluster", "--data", str(small_dataset), "--method", "glrr-f",
                 "--clusters", "2", "--out", str(tmp_path / "o")] + [arg(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:"), err
    assert "Traceback" not in err
    assert expected in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method, unread", [
    (["glrr-21", "--max-iters", "20"], ["--kernel", "ccp", "--alpha", "0.3"]),
    (["glrr-f"], ["--mu0", "5"]),
    (["kglrr", "--kernel", "cc-sum"], ["--alpha", "0.3"]),
], ids=["glrr-21-kernel", "glrr-f-mu0", "cc-sum-alpha"])
def test_unread_setting_leaves_the_run_unchanged(method, unread, small_dataset, tmp_path, capsys):
    runs = []
    for name, extra in (("plain", []), ("unread", unread)):
        out = tmp_path / name
        assert main(["cluster", "--data", str(small_dataset), "--method", *method,
                     "--lambda", "1", "--clusters", "2", "--out", str(out), *extra]) == 0
        files = [(out / f).read_bytes() for f in ("Z.mat", "labels.txt", "report.txt")]
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("method", [
    ["glrr-f"], ["kglrr", "--kernel", "cc-sum"], ["glrr-21", "--max-iters", "20"],
], ids=["glrr-f", "kglrr", "glrr-21"])
def test_stdout_row_counts_the_solve(method, small_dataset, tmp_path, capsys):
    # the closed form runs no iterations and prints "- -"; ADMM prints its own count
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["cluster", "--data", str(small_dataset), "--method", *method,
                 "--lambda", "0.5", "--clusters", "2", "--truth",
                 str(small_dataset / "truth.txt"), "--out", str(out)]) == 0
    report = load_report(out / "report.txt")
    accuracy = f"{float(report['accuracy']):.4f}"
    if method[0] == "glrr-21":
        assert int(report["iterations"]) >= 1
        counts = f"{report['iterations']} {report['converged']}"
    else:
        assert (report["iterations"], report["converged"]) == ("0", "true")
        counts = "- -"
    assert capsys.readouterr().out == ("method lambda iterations converged accuracy\n"
                                       f"{method[0]} 0.5 {counts} {accuracy}\n")


def test_cluster_count_above_n_fails_before_any_solve(small_dataset, tmp_path, monkeypatch,
                                                     capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("admm_solve ran although --clusters exceeds N")

    monkeypatch.setattr("grasslrr.clustering.admm_solve", no_solve)
    capsys.readouterr()
    code = main(["cluster", "--data", str(small_dataset), "--method", "glrr-21",
                 "--lambda", "1,2", "--clusters", "7", "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: cannot split 6 points into 7 clusters\n"


@pytest.mark.parametrize("argv, expected", [
    (["cluster", "--data", "{data}", "--method", "glrr-f", "--lambda", "1",
      "--clusters", "2", "--out", "{tmp}/o"],
     "dataset file not found: {data}/points/point_001.mat"),
    (["eval", "--pred", "{tmp}/pred.txt", "--truth", "{data}/truth.txt"],
     "labels file not found: {tmp}/pred.txt"),
    # the 6 x 2 sets have no 3-dimensional basis: entry 0's fails before the missing file
    (["cluster", "--data", "{data}", "--method", "glrr-f", "--p", "3", "--lambda", "1",
      "--clusters", "2", "--out", "{tmp}/o"],
     "'points/point_000.mat': p=3 must lie in [1, min(6, 2)]"),
], ids=["dataset-file", "eval-pred", "p-above-entry-0"])
def test_missing_input_file_is_exit_2(argv, expected, small_dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(small_dataset, data)
    os.remove(data / "points" / "point_001.mat")
    capsys.readouterr()
    code = main([arg.format(tmp=tmp_path, data=data) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {expected.format(tmp=tmp_path, data=data)}\n"


@pytest.mark.parametrize("phys, expected", [
    (2 << 30, "N=10000 points need at least 2400000000 bytes for the Gram matrix and its "
              "eigenvectors; physical memory is 2147483648 bytes"),
    (3 * 8 * 10000**2, "dataset file not found: {data}/points/point_00000.mat"),
    (None, "dataset file not found: {data}/points/point_00000.mat"),
], ids=["too-small", "just-fits", "unknown"])
def test_memory_floor_before_any_matrix_file(phys, expected, tmp_path, monkeypatch, capsys):
    # the page probe is patched, so nothing near the refused size is allocated;
    # the manifest's files do not exist, so reading any of them would fail
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.txt").write_text(
        "".join(f"points/point_{i:05d}.mat\t{i % 2}\n" for i in range(10000)))
    probed = []
    monkeypatch.setattr("grasslrr.cli.page_bytes", lambda pages: probed.append(pages) or phys)
    capsys.readouterr()
    code = main(["cluster", "--data", str(data), "--method", "glrr-f", "--lambda", "1",
                 "--clusters", "2", "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert code == 2
    assert probed == ["SC_PHYS_PAGES"]
    assert out == ""
    assert err == f"error: {expected.format(data=data)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("restarts, clusters, phys, expected", [
    (10**7, 3, 8 << 30, "N=12 points need at least 8640000000 bytes for 10000000 k-means "
                        "restarts of 3 clusters; physical memory is 8589934592 bytes"),
    (10**11, 2, 8 << 30, "N=12 points need at least 57600000000000 bytes for 100000000000 "
                         "k-means restarts of 2 clusters; physical memory is 8589934592 bytes"),
    (10**7, 2, 24 * 10**7 * 12 * 2, "dataset file not found: {data}/points/point_00.mat"),
], ids=["restarts-1e7", "restarts-1e11", "just-fits"])
def test_kmeans_batch_refused_before_any_matrix_file(restarts, clusters, phys, expected, tmp_path,
                                                     monkeypatch, capsys):
    # the page probe is patched and the manifest's files do not exist, so the refusal
    # allocates nothing and reads no matrix file
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.txt").write_text(
        "".join(f"points/point_{i:02d}.mat\t{i % 2}\n" for i in range(12)))
    (tmp_path / "run.cfg").write_text(f"restarts={restarts}\n")
    monkeypatch.setattr("grasslrr.cli.page_bytes", lambda pages: phys)
    capsys.readouterr()
    code = main(["cluster", "--config", str(tmp_path / "run.cfg"), "--data", str(data),
                 "--method", "glrr-f", "--lambda", "1", "--clusters", str(clusters),
                 "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {expected.format(data=data)}\n"
    assert not (tmp_path / "o").exists()


def test_standardize_near_the_float64_limit_is_exit_0(small_dataset, tmp_path, capsys):
    # unscaled, the std of this 1e300-scaled set overflows: numpy warns, and the basis
    # build then reports a false rank deficiency (exit 2)
    data = tmp_path / "data"
    shutil.copytree(small_dataset, data)
    path = data / "points" / "point_000.mat"
    write_matrix(path, read_matrix(path) * 1e300)
    capsys.readouterr()
    code = main(["cluster", "--data", str(data), "--method", "glrr-f", "--standardize",
                 "--lambda", "0.5", "--clusters", "2", "--out", str(tmp_path / "o")])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_eval_empty_label_files_is_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    capsys.readouterr()
    assert main(["eval", "--pred", str(empty), "--truth", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: label files are empty"), err
