"""How many workers a stage runs on: the CPUs the BLAS leaves idle, capped by the work.

Three stages use several CPUs: loading a dataset (forked processes), the cc
kernels' Gram rows (threads) and a sweep's lambda values (threads).  Each
worker's BLAS calls use the BLAS thread count, so ``cpus // blas`` workers
fit on the CPUs; ``worker_count`` is that rule for all three.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads(environ, cpus: int) -> int:
    """The largest positive integer among ``BLAS_THREAD_VARS`` in ``environ``, else ``cpus``."""
    threads = []
    for var in BLAS_THREAD_VARS:
        try:
            threads.append(int(environ.get(var, "")))
        except ValueError:
            pass
    return max((t for t in threads if t > 0), default=cpus)


def worker_count(cpus: int, environ, items: int, work: int | None = None, floor: int = 1) -> int:
    """``cpus // blas_threads``, at most ``items``, and each with ``floor`` of ``work``; >= 1."""
    cap = items if work is None else min(items, work // floor)
    return max(1, min(cpus // blas_threads(environ, cpus), cap))


def system_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1
