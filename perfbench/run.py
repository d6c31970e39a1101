"""Benchmark for the `grasslrr cluster` CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's inputs from ``--seed`` with the benchmark's own
generator, computes an independent reference answer, and imports the
program once in a fresh process; it is repeated three times and ``setup_s``
is the median.  With ``--trace 0`` the CLI then runs as a child process, one
run at a time (closed loop, one client), until ``--seconds`` have passed;
each run is timed from spawn to exit and its outputs are checked.  With
``--trace 1`` it runs three times instead: untraced, traced in-process
(``trace_child.py``), and untraced with one BLAS thread per CPU, and the
per-layer metrics come from the traced run's spans.

The last stdout line is the JSON result; the line before it is a detail
record (environment, parameters, computed work counts, every sample), also
written under ``.bench_out/results/``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # keeps this process's numpy off the children's cores

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_run, reference_z  # noqa: E402
from trace_child import LAYERS  # noqa: E402
from workloads import WORKLOADS, computed_counts, generate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CLI = "import sys; from grasslrr.cli import main; sys.exit(main())"  # the console-script shim
SETUP_REPEATS = 3
# One BLAS thread per child: on 2 vCPUs it ran as fast as two and spread less
# (sweep-f IQR/median 0.06-0.11 against 0.15).  The traced set also makes one
# run with every CPU, reported as env.blas_nproc_run_s.
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a child still running this long after start is killed and fails
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Run:
    started_at: float  # time.monotonic() at spawn; the clock is shared by all processes
    wall_s: float
    first_row_s: float | None
    peak_rss_mb: float
    exit_code: int
    stdout: list


def child_env(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


def spawn(cmd: list, env: dict, err_path: str, timeout: float) -> Run:
    """Run ``cmd`` to completion; time to exit, to the first result row, and peak RSS."""
    start = time.monotonic()
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT,
                                text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    lines, first_row = [], None
    try:
        for line in proc.stdout:
            lines.append(line)
            if len(lines) == 2:  # line 1 is the table header
                first_row = time.monotonic() - start
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
    return Run(start, wall, first_row, usage.ru_maxrss / 1024.0, proc.returncode, lines)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    import scipy

    def blas(cfg):
        return cfg.get("Build Dependencies", {}).get("blas", {}).get("version")

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "blas_threads_sanity_run": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_per_cpu0": caches,
    }


def working_set(workload, caches: dict) -> dict:
    """Computed N x N and input sizes, set against the recorded cache sizes."""
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    sizes = {lvl: int(v[:-1]) * units[v[-1]] if v[-1] in units else int(v)
             for lvl, v in caches.items()}
    nn = 8 * workload.n * workload.n
    cols = workload.samples or workload.p
    out = {"basis": "computed", "nxn_float64_bytes": nn,
           "input_float64_bytes": 8 * workload.n * workload.d * cols}
    for lvl, size in sizes.items():
        out[f"nxn_over_{lvl}"] = nn / size
    return out


def setup(workload, seed: int, work: str) -> tuple[list, dict, dict]:
    """Generate inputs, the reference, and a warm import, SETUP_REPEATS times.

    Returns the set-up times, the generated data (of the last repeat, left in
    ``work/input``) and the reference Z per lambda.
    """
    times = []
    env = child_env(BLAS_THREADS)
    for _ in range(SETUP_REPEATS):
        data_dir = os.path.join(work, "input")
        shutil.rmtree(data_dir, ignore_errors=True)
        start = time.monotonic()
        data = generate(workload, seed, data_dir)
        refs = reference_z(workload, data["mats"])
        subprocess.run([sys.executable, "-c", "import grasslrr.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.monotonic() - start)
    return times, data, refs


def quartiles(values: list) -> dict:
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values), "min": values[0],
           "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 11:  # highest percentile with ten samples beyond it
        out[f"p{100.0 * (len(values) - 10) / len(values):.1f}"] = values[len(values) - 11]
    return out


class Runner:
    """Runs and checks the CLI on one generated dataset, keeping the failure tally."""

    def __init__(self, workload, seed: int, work: str, data: dict, refs: dict, deadline: float):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = deadline
        self.data, self.refs = data, refs
        self.baseline = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.facts = []

    def run(self, threads: int, traced_spans: str | None = None,
            same_setting: bool = True) -> tuple[Run, dict]:
        """One checked run.  Byte-identity with the first run is required only
        when ``same_setting``: a different BLAS thread count may change
        rounding, and so the printed digits."""
        out_dir = os.path.join(self.work, f"out_{self.attempted}")
        args = self.workload.cli_args(os.path.join(self.work, "input"), out_dir, self.seed)
        if traced_spans is None:
            cmd = [sys.executable, "-u", "-c", CLI] + args
        else:
            cmd = [sys.executable, "-u", os.path.join(HERE, "trace_child.py"), traced_spans] + args
        err_path = os.path.join(self.work, f"stderr_{self.attempted}.txt")
        run = spawn(cmd, child_env(threads), err_path, max(self.deadline - time.monotonic(), 1.0))
        failures, facts = check_run(self.workload, out_dir, run.exit_code, run.stdout,
                                    self.data["labels"], self.refs,
                                    self.baseline if same_setting else None)
        if failures and run.exit_code != 0:
            failures.append("stderr tail: " + (_read(err_path) or "")[-400:].strip())
        if self.baseline is None and not failures:
            self.baseline = facts["digests"]
        self.attempted += 1
        self.failed += bool(failures)
        self.facts.append(facts)
        for failure in failures:
            self.failures.append(f"run {self.attempted}: {failure}")
            print(f"check failed: run {self.attempted}: {failure}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        return run, facts


def measure(runner: Runner, seconds: float, started: float) -> tuple[dict, dict, dict]:
    """Back-to-back untraced runs for about ``seconds``; returns (metrics, ungated, detail)."""
    runs = []
    t0 = time.monotonic()
    while True:
        runs.append(runner.run(BLAS_THREADS)[0])
        # stop where the next run would end nearer after the window than this one ends before it
        elapsed = time.monotonic() - t0
        if elapsed * (1.0 + 0.5 / len(runs)) >= seconds or time.monotonic() - started > 120.0:
            break
    wall = [r.wall_s for r in runs]
    # a run that printed no row (it failed) counts its whole wall time
    first = [r.wall_s if r.first_row_s is None else r.first_row_s for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    metrics = {
        "run_s": (statistics.median(wall), "s"),
        "first_row_s": (statistics.median(first), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    first_checked = [f for f in runner.facts if f["accuracy"]][:1]
    acc = first_checked[0]["accuracy"] if first_checked else []
    ungated = {
        "accuracy_best": (max(acc, default=None), "fraction"),
        "accuracy_min": (min(acc, default=None), "fraction"),
        **solver_facts(first_checked),
    }
    detail = {"run_s": quartiles(wall), "first_row_s": quartiles(first),
              "peak_rss_mb": quartiles(rss), "run_s_samples": wall}
    return metrics, ungated, detail


def solver_facts(facts: list) -> dict:
    """Solver iterations summed over the sweep, and the share of converged solves."""
    iters = [i for f in facts for i in f["iterations"]]
    conv = [c for f in facts for c in f["converged"]]
    return {"admm_iters": (sum(iters), "count"),
            "converged_ratio": (sum(conv) / len(conv) if conv else 0.0, "fraction")}


def span_tables(spans: list):
    """Per-span self times and a predicate-driven 'outermost' busy sum."""
    child = [0.0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start

    def busy(match) -> float:
        total = 0.0
        for i, span in enumerate(spans):
            if not match(span):
                continue
            parent = span[4]
            while parent >= 0 and not match(spans[parent]):
                parent = spans[parent][4]
            if parent < 0:
                total += span[3] - span[2]
        return total

    def self_time(match) -> float:
        return sum(s[3] - s[2] - child[i] for i, s in enumerate(spans) if match(s))

    return busy, self_time


def layer_metrics(workload, trace: dict, traced: Run, plain: Run, all_cpus: Run, facts: dict,
                  plain_facts: dict) -> dict:
    """Per-layer metrics from the traced run's spans, plus the untraced runs' sanity checks."""
    spans = trace["spans"]
    spawn_to_start = trace["t_start"] - traced.started_at
    busy, self_time = span_tables(spans)

    def fn(*names):
        return lambda s: f"{s[0]}.{s[1]}" in names

    def calls(name):
        return sum(1 for s in spans if f"{s[0]}.{s[1]}" == name)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (busy(lambda s, la=layer: s[0] == la), "s")
        m[f"{layer}.self_s"] = (self_time(lambda s, la=layer: s[0] == la), "s")
        m[f"{layer}.spans"] = (sum(1 for s in spans if s[0] == layer), "count")
    m["cli.import_s"] = (trace["import_s"], "s")

    read_s = busy(fn("dataio.load_manifest", "dataio.load_dataset", "dataio.read_matrix",
                     "dataio.read_labels"))
    write_s = busy(fn("dataio.save_results", "dataio.write_matrix", "dataio.write_labels"))
    io = trace["io_bytes"]
    m["dataio.read_s"] = (read_s, "s")
    m["dataio.read_bytes"] = (io["read"], "B")
    m["dataio.read_mb_per_s"] = (rate(io["read"] / 1e6, read_s), "MB/s")
    m["dataio.build_point_s"] = (busy(fn("dataio.build_point")), "s")
    m["dataio.build_point_calls"] = (calls("dataio.build_point"), "count")
    m["dataio.write_s"] = (write_s, "s")
    m["dataio.write_bytes"] = (io["write"], "B")
    m["dataio.write_mb_per_s"] = (rate(io["write"] / 1e6, write_s), "MB/s")

    counted = computed_counts(workload)
    build_delta_s = busy(fn("closed_form.build_delta"))
    build_delta_calls = calls("closed_form.build_delta")
    m["closed_form.build_delta_s"] = (build_delta_s, "s")
    m["closed_form.build_delta_calls"] = (build_delta_calls, "count")
    m["closed_form.build_delta_gflops"] = (
        rate(build_delta_calls * counted.get("build_delta_flops", 0) / 1e9, build_delta_s),
        "GFLOP/s")
    m["closed_form.solve_s"] = (busy(fn("closed_form.glrr_f_solve")), "s")
    m["closed_form.solve_calls"] = (calls("closed_form.glrr_f_solve"), "count")
    m["manifold.sym_eig_s"] = (busy(fn("manifold.sym_eig")), "s")
    m["manifold.sym_eig_calls"] = (calls("manifold.sym_eig"), "count")

    m["kernels.gram_s"] = (busy(fn("kernels.gram")), "s")
    m["kernels.gram_calls"] = (calls("kernels.gram"), "count")
    m["kernels.pair_evals"] = (trace["counts"].get("kernels.kernel_value", 0), "count")
    m["kernels.psd_clamp_s"] = (busy(fn("kernels.psd_clamp")), "s")
    m["kernels.clamp_magnitude"] = (max(facts["clamp_magnitude"], default=0.0), "1")

    admm_s = busy(fn("admm.admm_solve"))
    iterations = sum(facts["iterations"]) if workload.method == "glrr-21" else 0
    m["admm.solve_s"] = (admm_s, "s")
    m["admm.iterations"] = (iterations, "count")
    m["admm.iter_ms"] = (1e3 * admm_s / iterations if iterations else 0.0, "ms")
    m["admm.z_step_s"] = (busy(fn("admm.z_step")), "s")
    m["admm.svt_s"] = (busy(fn("admm.svt")), "s")
    m["admm.svt_calls"] = (calls("admm.svt"), "count")
    m["admm.e_step_s"] = (busy(fn("admm.e_step")), "s")
    m["admm.solve_self_s"] = (self_time(fn("admm.admm_solve")), "s")
    m.update(solver_facts([plain_facts]))

    m["clustering.affinity_s"] = (busy(fn("clustering.affinity_from_Z")), "s")
    m["clustering.ncut_s"] = (busy(fn("clustering.ncut")), "s")
    m["clustering.kmeans_s"] = (busy(fn("clustering.kmeans")), "s")
    m["clustering.pipeline_self_s"] = (self_time(fn("clustering.cluster_pipeline")), "s")
    m["evaluation.accuracy_s"] = (busy(fn("evaluation.accuracy")), "s")

    accounted = spawn_to_start + trace["import_s"] + trace["wrap_s"] + sum(
        m[f"{layer}.self_s"][0] for layer in LAYERS)
    m["trace.run_s"] = (traced.wall_s, "s")
    m["trace.process_start_s"] = (spawn_to_start, "s")
    m["trace.unaccounted_s"] = (traced.wall_s - accounted, "s")
    m["trace.accounted_share"] = (accounted / traced.wall_s, "fraction")
    m["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    m["trace.span_count"] = (len(spans), "count")
    m["env.run_s"] = (plain.wall_s, "s")
    m["env.blas_nproc_run_s"] = (all_cpus.wall_s, "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    started = time.monotonic()
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "grasslrr", "cli.py")):
        print(f"error: no grasslrr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[opts.workload]
    nproc = len(os.sched_getaffinity(0))
    work = os.path.join(OUT, f"{workload.name}-{opts.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_times, data, refs = setup(workload, opts.seed, work)
        runner = Runner(workload, opts.seed, work, data, refs, started + DEADLINE_S)
        if opts.trace == 0:
            metrics, ungated, detail = measure(runner, opts.seconds, started)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
        else:
            plain, plain_facts = runner.run(BLAS_THREADS)
            spans_path = os.path.join(work, "spans.json")
            traced, facts = runner.run(BLAS_THREADS, traced_spans=spans_path)
            trace = json.loads(_read(spans_path) or "null")
            all_cpus, all_cpus_facts = runner.run(nproc, same_setting=False)
            if trace is None:
                print("error: the traced run wrote no spans", file=sys.stderr)
                return 1
            ungated = {}
            metrics = layer_metrics(workload, trace, traced, plain, all_cpus, facts, plain_facts)
            detail = {"function_counts": trace["counts"],
                      "blas_nproc_outputs_identical":
                          all_cpus_facts["digests"] == plain_facts["digests"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.failed
    env = environment()
    detail.update(
        workload=workload.name, seed=opts.seed, seconds=opts.seconds, trace=opts.trace,
        params=workload.params(), why=workload.why, load="closed loop, 1 client",
        environment=env, computed=computed_counts(workload),
        working_set=working_set(workload, env["caches_per_cpu0"]),
        setup_s=quartiles(setup_times), attempted=runner.attempted, failed=failed,
        failures=runner.failures,
    )
    # named end-to-end metrics that are 0 on some workload or vary with the seed's
    # inputs rather than with the program, so BENCHMARK.json sets no bound on them
    ungated["fail_ratio"] = (failed / runner.attempted, "fraction")
    detail["ungated_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in ungated.items()}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    detail_path = os.path.join(OUT, "results",
                               f"{workload.name}-seed{opts.seed}-trace{opts.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
