"""Traced run: call the `grasslrr` CLI entry point in-process with spans around each layer.

Usage: python3 trace_child.py <spans.json> cluster <args...>

Every public function of the package's working modules is replaced, in every
module namespace that refers to it, by a wrapper that records a span
(layer, function, start, end, parent).  Functions called once per point pair
are only counted, so the trace does not dominate the work it measures.  Spans
stay in memory and are written to <spans.json> after the CLI returns; the
process exits with the CLI's exit code.
"""

import time

T_START = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

LAYERS = ("cli", "dataio", "manifold", "kernels", "closed_form", "admm", "clustering", "evaluation")
# per point pair or per object validation: count calls, record no span
COUNTED = {"projection_inner", "kernel_value", "k_projection", "k_cc", "k_ccp",
           "principal_angle_cosines", "check_same_shape", "as_matrix"}
READS = {"read_matrix", "read_labels", "load_manifest"}  # first argument is the file read


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.monotonic()
    import grasslrr.cli

    import_s = time.monotonic() - t0
    modules = [importlib.import_module(f"grasslrr.{name}") for name in LAYERS]

    clock = time.monotonic
    spans = []  # [layer, function, start, end, parent index]
    stack = [-1]
    counts = {}
    io_bytes = {"read": 0, "write": 0}

    def spanned(layer, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in READS:
                io_bytes["read"] += os.path.getsize(args[0])
            idx = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if name == "save_results":
                io_bytes["write"] += sum(os.path.getsize(p) for p in result.values())
            return result

        return wrapper

    def counted(key, fn):
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            key = f"{layer}.{name}"
            wrappers[id(fn)] = counted(key, fn) if name in COUNTED else spanned(layer, name, fn)
    for mod in modules + [sys.modules["grasslrr"]]:
        for name, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, name, wrappers[id(value)])
    wrap_s = time.monotonic() - t0 - import_s

    code = grasslrr.cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"t_start": T_START, "import_s": import_s, "wrap_s": wrap_s, "exit": code,
                   "spans": spans, "counts": counts, "io_bytes": io_bytes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
