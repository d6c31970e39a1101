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
from contextlib import closing
from dataclasses import fields

import numpy as np

from .admm import AdmmConfig
from .clustering import METHODS, ClusterLabels, NcutConfig, check_memory, cluster_sweep
from .dataio import (
    Manifest,
    SynthSpec,
    load_manifest,
    load_points,
    read_labels,
    read_lines,
    save_results,
    synth_union,
    write_labels,
    write_manifest,
    write_matrix,
)
from .errors import GrassLrrError, InvalidInputError, NumericalDivergenceError
from .evaluation import accuracy
from .kernels import KERNEL_KINDS, KernelSpec
from .parallel import page_bytes

ADMM_SETTINGS = [f for f in fields(AdmmConfig) if f.name != "lam"]  # cluster_sweep sets lam


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``grasslrr`` parser and its ``cluster`` subparser, whose defaults --config sets."""
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

    # an abbreviated flag is a usage error, as the README documents
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
    cluster.add_argument("--seed", type=int, default=NcutConfig.seed)
    cluster.add_argument("--p", type=int, default=None)
    cluster.add_argument("--standardize", action="store_true")
    cluster.add_argument("--kernel", default="projection", choices=KERNEL_KINDS)
    cluster.add_argument("--alpha", type=float, default=None)
    # one flag per ADMM setting, its dest the field that cmd_cluster passes it on to
    for f in ADMM_SETTINGS:
        cluster.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                             type=int if type(f.default) is int else float)
    cluster.add_argument("--restarts", type=int, default=NcutConfig.restarts)
    cluster.add_argument("--kmeans-max-iters", type=int, default=NcutConfig.max_iters)
    cluster.set_defaults(func=cmd_cluster)

    ev = sub.add_parser("eval", help="score predicted labels against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.set_defaults(func=cmd_eval)

    return parser, cluster


def _switch(value: str) -> bool:
    """1/true/yes is true and 0/false/no false, in any case; any other word is refused."""
    word = value.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(value)
    return word in ("1", "true", "yes")


def _config_defaults(path: str, cluster: argparse.ArgumentParser) -> dict:
    """Read --config's key=value lines into defaults keyed by dest.

    A key is a flag name without ``--``, and its value is converted the way
    that flag converts it; a store_true flag takes ``_switch``'s words.  A
    required flag, which a default cannot set, is no key, and a key may be
    set on one line only.
    """
    flags = {
        action.option_strings[0][2:]: action
        for action in cluster._actions
        if action.dest not in ("help", "config") and not action.required
    }
    defaults, set_on = {}, {}
    for line_no, stripped in read_lines(path, "config file"):
        if stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        action = flags.get(key)
        if not sep or action is None:
            raise InvalidInputError(f"{path}: line {line_no}: unknown config entry {stripped!r}")
        if key in set_on:
            raise InvalidInputError(
                f"{path}: line {line_no}: {key} is already set on line {set_on[key]}"
            )
        set_on[key] = line_no
        convert = _switch if action.nargs == 0 else action.type or str
        try:
            defaults[action.dest] = convert(value)
        except ValueError:
            raise InvalidInputError(
                f"{path}: line {line_no}: bad value for {key}: {value!r}"
            ) from None
    return defaults


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
    rels = [os.path.join("points", f"point_{i:03d}.mat") for i in range(len(points))]
    for rel, point in zip(rels, points):
        write_matrix(os.path.join(args.out, rel), point.basis)
    write_manifest(os.path.join(args.out, "manifest.txt"), zip(rels, labels))
    write_labels(os.path.join(args.out, "truth.txt"), labels)
    print(f"wrote {len(points)} points ({spec.n_clusters} clusters) to {args.out}")
    return 0


def _load_points(args) -> list:
    manifest_path = args.data
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, "manifest.txt")
    manifest: Manifest = load_manifest(manifest_path)
    # before any matrix file
    check_memory(len(manifest.entries), page_bytes("SC_PHYS_PAGES"), args.restarts, args.clusters)
    points = load_points(manifest, args.p, args.standardize)
    if not points:
        raise InvalidInputError(f"{manifest_path}: manifest lists no data")
    return points


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
    # every method's settings are built, and so checked, before any matrix file is
    # read; cluster_sweep picks what its method reads
    ncut_cfg = NcutConfig(
        n_clusters=args.clusters,
        restarts=args.restarts,
        max_iters=args.kmeans_max_iters,
        seed=args.seed,
    )
    kernel_spec = KernelSpec(kind=args.kernel, alpha=args.alpha)
    if args.max_iters < 1:  # AdmmConfig takes 0 (the all-zero start), but that is no solve
        raise InvalidInputError(f"max-iters must be at least 1, got {args.max_iters}")
    if args.p is not None and args.p < 1:
        raise InvalidInputError(f"p must be at least 1, got {args.p}")
    admm_cfg = AdmmConfig(lam=lambdas[0], **{f.name: getattr(args, f.name) for f in ADMM_SETTINGS})

    points = _load_points(args)
    truth = None
    if args.truth is not None:  # after the load, since it needs N
        truth_labels = read_labels(args.truth)
        if truth_labels.shape[0] != len(points):
            raise InvalidInputError(
                f"{args.truth}: {truth_labels.shape[0]} labels for {len(points)} points"
            )
        truth = _clusters(truth_labels)

    # closing: a failed write or lambda cancels the queued lambda values and
    # joins the running ones before main reports the error
    with closing(cluster_sweep(points, args.method, ncut_cfg, lambdas, kernel_spec,
                               admm_cfg)) as sweep:
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

            # only the closed form runs 0 iterations, and it prints "- -"
            counts = f"{diag['iterations']} {report['converged']}" if diag["iterations"] else "- -"
            if lam == lambdas[0]:  # with the first row, so a setup error leaves stdout empty
                print("method lambda iterations converged accuracy")
            print(f"{args.method} {lam:g} {counts} {acc_text}")
    return 0


def _clusters(values: np.ndarray) -> ClusterLabels:
    """Label ids as clusters 0..k-1 by their rank among the distinct ids, so any int64 ids do."""
    ids, ranks = np.unique(values, return_inverse=True)
    return ClusterLabels(labels=ranks, n_clusters=ids.size)


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
    report = accuracy(_clusters(pred_values), _clusters(truth_values))
    print(f"accuracy {report.accuracy:.4f} ({report.accuracy * 100.0:.2f}%)")
    print("confusion (rows: predicted, cols: true):")
    for row in np.asarray(report.confusion):
        print(" ".join(str(int(v)) for v in row))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, cluster = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "cluster" and args.config:
            # the file's entries become defaults, so a flag given in argv wins the reparse
            cluster.set_defaults(**_config_defaults(args.config, cluster))
            args = parser.parse_args(argv)
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
