"""Output checks for one `grasslrr cluster` run, with an independent reference for Z.

The reference never calls the program.  For glrr-f it forms the N x N Gram
matrix as E E^T of the vectorized projectors X X^T (not the p x p cross
products ``build_delta`` uses); for kglrr cc-sum it takes the principal-angle
cosines from one batched SVD over all cross products.  Either matrix is then
eigendecomposed once, negative eigenvalues are clamped to zero, and the
shrinkage rule f(s) = 1 - lam/s for s > lam (else 0) gives Z.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import Workload

Z_RTOL = 1e-6  # ||Z - Z_ref||_F / ||Z_ref||_F on the closed-form workloads
REPORT_KEYS = ("method", "lambda", "iterations", "converged", "accuracy", "clamp_magnitude",
               "rank_Z")


def _bases(workload: Workload, mats: list) -> np.ndarray:
    """(N, d, p) stack of the orthonormal bases the program should derive from its inputs."""
    if workload.kind == "basis":
        return np.stack(mats)
    return np.stack([np.linalg.svd(m, full_matrices=False)[0][:, : workload.p] for m in mats])


def reference_z(workload: Workload, mats: list) -> dict:
    """lam -> reference Z for the closed-form methods; empty for ADMM."""
    if workload.method == "glrr-21":
        return {}
    X = _bases(workload, mats)
    if workload.method == "glrr-f":
        E = (X @ X.transpose(0, 2, 1)).reshape(len(mats), -1)
        G = E @ E.T
    else:
        cross = np.matmul(X.transpose(0, 2, 1)[:, None], X[None])
        G = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0).sum(axis=-1)
    w, V = np.linalg.eigh((G + G.T) / 2.0)
    w = np.maximum(w, 0.0)
    out = {}
    for lam in workload.lambdas:
        f = np.where(w > lam, 1.0 - lam / np.where(w > lam, w, 1.0), 0.0)
        out[lam] = (V * f) @ V.T
    return out


def read_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    rows, cols = int(tokens[0]), int(tokens[1])
    values = tokens[2:]
    if len(values) != rows * cols:
        raise ValueError(f"{path}: {len(values)} values for a {rows}x{cols} header")
    # float.fromhex would misread a plain decimal ("0.5" as 0x0.5), so it only gets hex tokens
    if all("x" in t for t in values):
        flat = list(map(float.fromhex, values))
    else:
        flat = [float.fromhex(t) if "x" in t else float(t) for t in values]
    return np.array(flat).reshape(rows, cols)


def matched_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    side = int(max(pred.max(), truth.max())) + 1
    table = np.zeros((side, side), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    rows, cols = linear_sum_assignment(-table)
    return int(table[rows, cols].sum()) / pred.size


def lam_dir(workload: Workload, out_dir: str, lam: float) -> str:
    return out_dir if len(workload.lambdas) == 1 else os.path.join(out_dir, f"lam_{lam:g}")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(workload: Workload, out_dir: str, exit_code: int, stdout_lines: list,
              truth: np.ndarray, refs: dict, baseline: dict | None) -> tuple[list, dict]:
    """Check one run's outputs; returns (failures, facts).

    ``facts`` holds per-lambda accuracy (recomputed from labels.txt),
    iterations, convergence and PSD-repair magnitude as reported, plus the
    digests of report.txt and labels.txt.  When ``baseline`` (the digests of
    an earlier run of the same code) is given, both files must match it byte
    for byte.
    """
    failures = []
    facts = {"accuracy": [], "iterations": [], "converged": [], "clamp_magnitude": [],
             "digests": {}}
    if exit_code != 0:
        return [f"exit code {exit_code}"], facts
    rows = [ln.split() for ln in stdout_lines[1:] if ln.strip()]
    if len(rows) != len(workload.lambdas):
        failures.append(f"{len(rows)} result rows on stdout, expected {len(workload.lambdas)}")
    n = workload.n
    for lam in workload.lambdas:
        where = lam_dir(workload, out_dir, lam)
        tag = f"lambda={lam:g}"
        try:
            with open(os.path.join(where, "report.txt"), encoding="utf-8") as fh:
                report = dict(ln.rstrip("\n").split("=", 1) for ln in fh if ln.strip())
            labels = np.loadtxt(os.path.join(where, "labels.txt"), dtype=np.int64, ndmin=1)
            Z = read_matrix(os.path.join(where, "Z.mat"))
        except (OSError, ValueError) as exc:
            failures.append(f"{tag}: unreadable output: {exc}")
            continue
        missing = [k for k in REPORT_KEYS if k not in report]
        if missing:
            failures.append(f"{tag}: report.txt lacks {missing}")
            continue
        if labels.shape != (n,) or labels.min() < 0 or labels.max() >= workload.clusters:
            failures.append(f"{tag}: labels.txt is not {n} labels in [0, {workload.clusters})")
            continue
        if Z.shape != (n, n) or not np.isfinite(Z).all():
            failures.append(f"{tag}: Z.mat is not a finite {n}x{n} matrix")
            continue
        if lam in refs:
            ref = refs[lam]
            err = float(np.linalg.norm(Z - ref) / max(np.linalg.norm(ref), 1e-300))
            if not err <= Z_RTOL:
                failures.append(f"{tag}: Z differs from the reference by {err:.3g} (rtol {Z_RTOL})")
        acc = matched_accuracy(labels, truth)
        try:
            reported = float(report["accuracy"])
            iterations = int(report["iterations"])
            clamp = float(report["clamp_magnitude"])
        except ValueError as exc:
            failures.append(f"{tag}: malformed report.txt value: {exc}")
            continue
        if not math.isclose(reported, acc, rel_tol=0.0, abs_tol=1e-12):
            failures.append(f"{tag}: report accuracy {reported!r} != recomputed {acc!r}")
        if report["converged"] not in ("true", "false"):
            failures.append(f"{tag}: converged={report['converged']!r}")
        facts["accuracy"].append(acc)
        facts["iterations"].append(iterations)
        facts["converged"].append(report["converged"] == "true")
        facts["clamp_magnitude"].append(clamp)
        for name in ("report.txt", "labels.txt"):
            key = f"{lam:g}/{name}"
            facts["digests"][key] = _digest(os.path.join(where, name))
            if baseline is not None and baseline.get(key) != facts["digests"][key]:
                failures.append(f"{tag}: {name} differs from the first run's")
    return failures, facts
