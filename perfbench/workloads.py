"""Seeded input generators and computed work counts for the benchmark workloads.

Inputs come from the benchmark's own numpy generator, never from
``grasslrr synth``, so a change to the program cannot change what it is
fed.  ``generate`` writes ``points/*.mat``, ``manifest.txt`` and
``truth.txt`` into a directory and returns the in-memory arrays it wrote, so
the output checks can build an independent reference without reading the
files back through the program.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    clusters: int
    per_cluster: int
    d: int
    p: int
    lambdas: tuple
    kind: str  # "basis": d x p orthonormal bases in hex; "imageset": raw d x samples decimals
    sigma: float = 0.0  # basis noise for "basis" inputs
    outlier_frac: float = 0.0  # share of points replaced by random subspaces
    samples: int = 0  # columns per image set
    noise: float = 0.0  # additive pixel noise for image sets
    signal: float = 0.0  # std of the rank-p signal coefficients for image sets
    kernel: str | None = None

    @property
    def n(self) -> int:
        return self.clusters * self.per_cluster

    def cli_args(self, data_dir: str, out_dir: str, seed: int) -> list[str]:
        args = [
            "cluster",
            "--data", data_dir,
            "--method", self.method,
            "--lambda", ",".join(f"{lam:g}" for lam in self.lambdas),
            "--clusters", str(self.clusters),
            "--seed", str(seed),
            "--truth", os.path.join(data_dir, "truth.txt"),
            "--out", out_dir,
        ]
        if self.kernel is not None:
            args += ["--kernel", self.kernel, "--p", str(self.p)]
        return args

    def params(self) -> dict:
        return {"N": self.n, **{k: v for k, v in asdict(self).items() if k != "why"}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-f",
            why=("glrr-f N=500 d=30 p=3 hex, 4 lambdas: per-pair build_delta loop once per "
                 "lambda, four 5 MB hex Z.mat writes. No kernels, no ADMM: kernels or admm "
                 "changes should leave it unchanged"),
            method="glrr-f", clusters=10, per_cluster=50, d=30, p=3,
            lambdas=(0.01, 0.1, 1.0, 10.0), kind="basis", sigma=0.05,
        ),
        Workload(
            name="kernel-imageset",
            why=("kglrr cc-sum N=400 raw 256x12 decimal sets, 2 lambdas: decimal reads, "
                 "build_point SVDs, per-pair kernel SVDs, PSD repair. admm or build_delta "
                 "changes should leave it unchanged"),
            method="kglrr", clusters=8, per_cluster=50, d=256, p=3,
            lambdas=(0.1, 1.0), kind="imageset", samples=12, signal=1.0, noise=0.3,
            kernel="cc-sum",
        ),
        Workload(
            name="robust-21",
            why=("glrr-21 N=200 d=30 p=3 hex, 10% outlier subspaces, lambda 1: time is 500 "
                 "ADMM iterations of two NxN SVDs each. No kernels: kernels changes should "
                 "leave it unchanged"),
            method="glrr-21", clusters=4, per_cluster=50, d=30, p=3,
            lambdas=(1.0,), kind="basis", sigma=0.05, outlier_frac=0.1,
        ),
    )
}


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    # numpy seeds must be non-negative; the modulus leaves every such seed as it is
    return np.random.default_rng([sorted(WORKLOADS).index(workload.name), seed % 2**64])


def _orthonormal(rng: np.random.Generator, m: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(m)
    return q


def _write_hex(path: str, m: np.ndarray) -> None:
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines += [" ".join(float(v).hex() for v in row) for row in m]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_decimal(path: str, m: np.ndarray) -> None:
    # %.17g round-trips float64 exactly, so the files hold what the reference uses
    row_fmt = " ".join(["%.17g"] * m.shape[1])
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines += [row_fmt % tuple(row) for row in m.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def generate(workload: Workload, seed: int, out_dir: str) -> dict:
    """Write the workload's dataset for ``seed``; return the matrices and labels written."""
    rng = _rng(workload, seed)
    d, p = workload.d, workload.p
    centers = [_orthonormal(rng, rng.standard_normal((d, p))) for _ in range(workload.clusters)]
    labels = np.repeat(np.arange(workload.clusters), workload.per_cluster)
    mats = []
    for c in labels:
        if workload.kind == "basis":
            noise = workload.sigma * rng.standard_normal((d, p))
            mats.append(_orthonormal(rng, centers[c] + noise))
        else:
            coeffs = workload.signal * rng.standard_normal((p, workload.samples))
            noise = workload.noise * rng.standard_normal((d, workload.samples))
            mats.append(centers[c] @ coeffs + noise)
    if workload.outlier_frac > 0.0:
        n_out = int(round(workload.outlier_frac * workload.n))
        for i in rng.choice(workload.n, size=n_out, replace=False):
            mats[i] = _orthonormal(rng, rng.standard_normal((d, p)))

    points_dir = os.path.join(out_dir, "points")
    os.makedirs(points_dir, exist_ok=True)
    write = _write_hex if workload.kind == "basis" else _write_decimal
    manifest = []
    for i, (m, c) in enumerate(zip(mats, labels)):
        rel = f"points/point_{i:04d}.mat"
        write(os.path.join(out_dir, rel), m)
        manifest.append(f"{rel}\t{int(c)}")
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest) + "\n")
    with open(os.path.join(out_dir, "truth.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(c)) for c in labels) + "\n")
    return {"mats": mats, "labels": labels}


def computed_counts(workload: Workload) -> dict:
    """Operation and byte counts derived from N, d and p; every entry is computed, not measured.

    Flop rules: a GEMM of (m x k)(k x n) is 2mkn; a full symmetric
    eigendecomposition with vectors is 9n^3, eigenvalues only 4n^3/3; a full
    SVD of n x n with vectors is 21n^3, singular values only 8n^3/3, and a
    thin m x n SVD with vectors 6mn^2 + 20n^3 (Golub & Van Loan).  Bytes
    count float64 operands once, ignoring cache reuse.
    """
    n, d, p = workload.n, workload.d, workload.p
    pairs = n * (n + 1) // 2
    n_lam = len(workload.lambdas)
    nn_bytes = 8 * n * n
    out = {
        "basis": "computed",
        "pairs_per_gram": pairs,
        "nxn_matrix_bytes": nn_bytes,
        "eigh_flops": 9 * n**3,
        "eigh_bytes": 2 * nn_bytes,
        "hex_z_bytes_approx": n * n * 23,
    }
    if workload.method in ("glrr-f", "glrr-21"):
        per_pair = 2 * d * p * p + 2 * p * p
        out["build_delta_flops"] = pairs * per_pair
        out["build_delta_bytes"] = pairs * 2 * d * p * 8 + nn_bytes
        out["build_delta_calls"] = n_lam
    if workload.method == "kglrr":
        per_pair = 2 * d * p * p + (8 * p**3) // 3
        out["kernel_pair_evals"] = pairs * n_lam
        out["kernel_pair_flops"] = per_pair
        out["gram_flops"] = pairs * per_pair
        out["read_values"] = n * d * workload.samples
        s = workload.samples
        out["build_point_flops"] = n * (6 * d * s * s + 20 * s**3)
    if workload.method == "glrr-21":
        # e_step delta@W; z_step two delta products, delta@Z, full SVD and its
        # reconstruction; objective D@E and singular values; two delta-norms
        out["admm_iter_flops"] = int((2 + 2 + 2 + 2 + 21 + 2 + 2 + 8 / 3 + 4) * n**3)
        out["admm_iter_bytes"] = 10 * nn_bytes
    return out
