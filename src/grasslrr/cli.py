"""Command-line pipeline: generate fixtures, cluster subspace data, score labels.

Exit codes: 0 on success (including a flagged non-converged solve), 2 on
usage or input errors and when memory runs out, 3 on numerical divergence or a
failed decomposition.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .admm import AdmmConfig
from .clustering import METHODS, ClusterLabels, NcutConfig, cluster_sweep
from .dataio import (
    Manifest,
    SynthSpec,
    build_point,
    load_dataset,
    load_manifest,
    read_labels,
    read_lines,
    save_results,
    synth_union,
    write_labels,
    write_matrix,
)
from .errors import GrassLrrError, InvalidInputError, NumericalDivergenceError
from .evaluation import accuracy
from .kernels import KERNEL_KINDS, KernelSpec

# --config file entries for `cluster`; values are converted like their flags
_CONFIG_CONVERTERS = {
    "data": str,
    "method": str,
    "lambda": str,
    "clusters": int,
    "out": str,
    "truth": str,
    "seed": int,
    "p": int,
    "standardize": lambda v: v.lower() in ("1", "true", "yes"),
    "kernel": str,
    "alpha": float,
    "mu0": float,
    "rho0": float,
    "mu-max": float,
    "eta": float,
    "eps1": float,
    "eps2": float,
    "max-iters": int,
    "restarts": int,
    "kmeans-max-iters": int,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasslrr",
        description="Cluster subspace-valued data by low-rank self-representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic union-of-subspaces dataset")
    synth.add_argument("--clusters", type=int, required=True)
    synth.add_argument("--per-cluster", type=int, required=True)
    synth.add_argument("--d", type=int, required=True)
    synth.add_argument("--p", type=int, required=True)
    synth.add_argument("--sigma", type=float, default=0.0)
    synth.add_argument("--min-separation", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    # no abbreviated flags: --config detects explicit flags by their full names
    cluster = sub.add_parser(
        "cluster", help="solve, build the affinity, and cluster", allow_abbrev=False
    )
    cluster.add_argument("--config", default=None, help="key=value defaults file")
    cluster.add_argument("--data", required=True, help="dataset dir or manifest path")
    cluster.add_argument("--method", required=True, choices=METHODS)
    cluster.add_argument(
        "--lambda", dest="lam", required=True, help="penalty, or comma list to sweep"
    )
    cluster.add_argument("--clusters", type=int, required=True)
    cluster.add_argument("--out", required=True)
    cluster.add_argument("--truth", default=None, help="labels file for accuracy")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--p", type=int, default=None)
    cluster.add_argument("--standardize", action="store_true")
    cluster.add_argument("--kernel", default="projection", choices=KERNEL_KINDS)
    cluster.add_argument("--alpha", type=float, default=0.5)
    cluster.add_argument("--mu0", type=float, default=0.01)
    cluster.add_argument("--rho0", type=float, default=1.9)
    cluster.add_argument("--mu-max", type=float, default=1e10)
    cluster.add_argument("--eta", type=float, default=None)
    cluster.add_argument("--eps1", type=float, default=1e-4)
    cluster.add_argument("--eps2", type=float, default=1e-4)
    cluster.add_argument("--max-iters", type=int, default=500)
    cluster.add_argument("--restarts", type=int, default=20)
    cluster.add_argument("--kmeans-max-iters", type=int, default=300)
    cluster.set_defaults(func=cmd_cluster)

    ev = sub.add_parser("eval", help="score predicted labels against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.set_defaults(func=cmd_eval)

    return parser


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Merge --config key=value entries; explicit flags win."""
    if not args.config:
        return
    if not os.path.exists(args.config):
        raise InvalidInputError(f"config file not found: {args.config}")
    explicit = set()
    for token in argv:
        if token.startswith("--"):
            explicit.add(token[2:].split("=", 1)[0])
    for line_no, line in enumerate(read_lines(args.config), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _CONFIG_CONVERTERS:
            raise InvalidInputError(
                f"{args.config}: line {line_no}: unknown config entry {stripped!r}"
            )
        if key in explicit:
            continue
        try:
            converted = _CONFIG_CONVERTERS[key](value)
        except ValueError:
            raise InvalidInputError(
                f"{args.config}: line {line_no}: bad value for {key}: {value!r}"
            ) from None
        setattr(args, "lam" if key == "lambda" else key.replace("-", "_"), converted)


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_clusters=args.clusters,
        per_cluster=args.per_cluster,
        d=args.d,
        p=args.p,
        noise_sigma=args.sigma,
        min_separation=args.min_separation,
        seed=args.seed,
    )
    points, labels = synth_union(spec)
    points_dir = os.path.join(args.out, "points")
    os.makedirs(points_dir, exist_ok=True)
    manifest_lines = []
    for i, point in enumerate(points):
        rel = os.path.join("points", f"point_{i:03d}.mat")
        write_matrix(os.path.join(args.out, rel), point.basis)
        manifest_lines.append(f"{rel}\t{int(labels[i])}")
    with open(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest_lines) + "\n")
    write_labels(os.path.join(args.out, "truth.txt"), labels)
    print(f"wrote {len(points)} points ({spec.n_clusters} clusters) to {args.out}")
    return 0


def _load_points(args) -> list:
    manifest_path = args.data
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, "manifest.txt")
    manifest: Manifest = load_manifest(manifest_path)
    sets = load_dataset(manifest)
    if not sets:
        raise InvalidInputError(f"{manifest_path}: manifest lists no data")
    p = args.p if args.p is not None else min(sets[0].samples.shape)
    return [build_point(s, p, standardize=args.standardize) for s in sets]


def _parse_lambdas(text: str) -> list[float]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            raise InvalidInputError(f"bad lambda value {part!r}") from None
        if not (0.0 < value < math.inf):
            raise InvalidInputError(f"lambda must be positive and finite, got {value}")
        out.append(value)
    if not out:
        raise InvalidInputError("no lambda values given")
    return out


def cmd_cluster(args) -> int:
    lambdas = sorted(_parse_lambdas(args.lam))
    for a, b in zip(lambdas, lambdas[1:]):  # sorted, so equal lam_<value:g> names are adjacent
        if f"{a:g}" == f"{b:g}":
            raise InvalidInputError(f"lambda values {a!r} and {b!r} would both write lam_{a:g}")
    points = _load_points(args)
    truth = None
    if args.truth is not None:
        truth_labels = read_labels(args.truth)
        if truth_labels.shape[0] != len(points):
            raise InvalidInputError(
                f"{args.truth}: {truth_labels.shape[0]} labels for {len(points)} points"
            )
        truth = ClusterLabels(labels=truth_labels, n_clusters=int(truth_labels.max()) + 1)

    ncut_cfg = NcutConfig(
        n_clusters=args.clusters,
        restarts=args.restarts,
        max_iters=args.kmeans_max_iters,
        seed=args.seed,
    )
    kernel_spec = admm_cfg = None
    if args.method == "kglrr":
        kernel_spec = KernelSpec(
            kind=args.kernel, alpha=args.alpha if args.kernel == "ccp" else None
        )
    elif args.method == "glrr-21":
        # cluster_sweep replaces lam with each swept value
        admm_cfg = AdmmConfig(
            lam=lambdas[0],
            mu0=args.mu0,
            rho0=args.rho0,
            mu_max=args.mu_max,
            eta=args.eta,
            eps1=args.eps1,
            eps2=args.eps2,
            max_iters=args.max_iters,
        )

    print("method lambda iterations converged accuracy")
    sweep = cluster_sweep(points, args.method, ncut_cfg, lambdas, kernel_spec, admm_cfg)
    for lam, (labels, coeffs, diag) in zip(lambdas, sweep):
        acc_text = "-"
        report = {
            "method": args.method,
            "lambda": repr(lam),
            "iterations": diag["iterations"],
            "converged": "true" if diag["converged"] else "false",
        }
        if truth is not None:
            acc = accuracy(labels, truth).accuracy
            acc_text = f"{acc:.4f}"
            report["accuracy"] = repr(acc)
        report["clamp_magnitude"] = repr(float(diag["clamp_magnitude"]))
        report["rank_Z"] = diag["rank_z"]

        out_dir = args.out if len(lambdas) == 1 else os.path.join(args.out, f"lam_{lam:g}")
        save_results(out_dir, coeffs, labels, report)

        if args.method == "glrr-21":
            iter_text, conv_text = str(diag["iterations"]), report["converged"]
        else:
            iter_text, conv_text = "-", "-"
        print(f"{args.method} {lam:g} {iter_text} {conv_text} {acc_text}")
    return 0


def cmd_eval(args) -> int:
    pred_values = read_labels(args.pred)
    truth_values = read_labels(args.truth)
    if pred_values.shape[0] != truth_values.shape[0]:
        raise InvalidInputError(
            f"label files differ in length: {args.pred} has {pred_values.shape[0]}, "
            f"{args.truth} has {truth_values.shape[0]}"
        )
    if pred_values.shape[0] == 0:
        raise InvalidInputError("label files are empty")
    pred = ClusterLabels(labels=pred_values, n_clusters=int(pred_values.max()) + 1)
    truth = ClusterLabels(labels=truth_values, n_clusters=int(truth_values.max()) + 1)
    report = accuracy(pred, truth)
    print(f"accuracy {report.accuracy:.4f} ({report.accuracy * 100.0:.2f}%)")
    print("confusion (rows: predicted, cols: true):")
    for row in np.asarray(report.confusion):
        print(" ".join(str(int(v)) for v in row))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "cluster":
            _apply_config_file(args, argv)
        return args.func(args)
    except (NumericalDivergenceError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GrassLrrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the failed allocation's size and shape
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
