"""The machine probes, the worker rule and the one worker pool.

Three stages use several CPUs: loading a dataset (forked processes), the cc
kernels' Gram rows (threads) and a sweep's lambda values (threads).  Each
worker's BLAS calls use the BLAS thread count, so ``cpus // blas`` workers
fit on the CPUs; ``worker_count`` is that rule for all three.  Each stage
runs its jobs through ``ordered_map``, the only owner of a worker's lifecycle.
"""

from __future__ import annotations

import os
from collections import deque

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


def worker_count(cpus: int, environ, items: int, work: int, floor: int) -> int:
    """``cpus // blas_threads``, at most ``items``, and each with ``floor`` of ``work``; >= 1."""
    return max(1, min(cpus // blas_threads(environ, cpus), items, work // floor))


def system_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def page_bytes(pages: str) -> int | None:
    """``os.sysconf(pages)`` pages in bytes, or None where sysconf lacks the names."""
    try:
        return os.sysconf(pages) * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def ordered_map(fn, jobs, workers: int, fork: bool = False):
    """Yield ``fn(*job)`` for each job of ``jobs``, in job order.

    ``workers == 1`` is a plain loop on the calling thread that imports
    neither ``concurrent.futures`` nor ``multiprocessing``.  Otherwise the
    caller waits while ``workers`` threads, or forked processes, run the jobs,
    one job queued beyond the running ones.  A job's exception is raised at
    its turn; a forked worker that dies is a ``ChildProcessError``.  On every
    exit the jobs not yet started are cancelled and the running ones joined.
    """
    if workers == 1:
        for job in jobs:
            yield fn(*job)
        return
    from concurrent import futures

    if fork:
        import multiprocessing

        pool = futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    else:
        pool = futures.ThreadPoolExecutor(workers)
    try:
        # a worker that finishes starts on the queued job while the caller
        # still handles the oldest result
        window = deque()
        for job in jobs:
            window.append(pool.submit(fn, *job))
            if len(window) > workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    except futures.BrokenExecutor as exc:
        raise ChildProcessError(str(exc)) from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
