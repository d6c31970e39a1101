"""``parallel.ordered_map``: the one worker pool's order, errors and lifecycle."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

import grasslrr
from grasslrr.parallel import ordered_map

WORKERS = (1, 2, 3, 4)
JOB_COUNTS = range(8)
MODES = [False, True]


def affine(i, scale, shift):
    # early jobs finish last, so results arrive out of job order
    time.sleep(0.002 * (3 - i % 4))
    return i * scale + shift


def fail_at(i, bad):
    if i == bad:
        raise ValueError(f"job {i} fails")
    time.sleep(0.002 * (i % 3))
    return i


def slow(i):
    time.sleep(0.05)
    return i


def die(i):
    os._exit(9)


def live_workers():
    return threading.active_count(), multiprocessing.active_children()


@pytest.mark.parametrize("fork", MODES, ids=["threads", "fork"])
@pytest.mark.parametrize("workers", WORKERS)
def test_results_equal_the_serial_loop(workers, fork):
    before = threading.active_count()
    for n in JOB_COUNTS:
        jobs = [(i, 3.5, -i) for i in range(n)]
        assert list(ordered_map(affine, jobs, workers, fork)) == [affine(*j) for j in jobs]
        assert live_workers() == (before, [])


@pytest.mark.parametrize("fork", MODES, ids=["threads", "fork"])
@pytest.mark.parametrize("workers", WORKERS)
def test_failing_job_raised_after_exactly_the_earlier_results(workers, fork):
    before = threading.active_count()
    for bad in range(7):
        results = ordered_map(fail_at, [(i, bad) for i in range(7)], workers, fork)
        got = []
        with pytest.raises(ValueError, match=f"job {bad} fails"):
            for value in results:
                got.append(value)
        assert got == list(range(bad))
        assert list(results) == []
        assert live_workers() == (before, [])


@pytest.mark.parametrize("fork", MODES, ids=["threads", "fork"])
@pytest.mark.parametrize("workers", WORKERS)
def test_closing_early_leaves_no_worker(workers, fork):
    before = threading.active_count()
    for taken in range(4):
        results = ordered_map(slow, [(i,) for i in range(6)], workers, fork)
        assert [next(results) for _ in range(taken)] == list(range(taken))
        results.close()
        assert live_workers() == (before, [])


def test_a_dying_worker_is_a_child_process_error():
    before = threading.active_count()
    with pytest.raises(ChildProcessError, match="terminated abruptly"):
        list(ordered_map(die, [(i,) for i in range(3)], 2, fork=True))
    assert live_workers() == (before, [])


def test_jobs_run_on_the_calling_thread_only_with_one_worker():
    caller = threading.get_ident()
    assert set(ordered_map(threading.get_ident, [()] * 4, 1)) == {caller}
    assert caller not in set(ordered_map(threading.get_ident, [()] * 4, 2))


def test_one_worker_imports_no_pool_module():
    script = (
        "import sys\n"
        "from grasslrr.parallel import ordered_map\n"
        "values = list(ordered_map(pow, [(2, 3), (3, 2)], 1, fork=True))\n"
        "print(values, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(grasslrr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[8, 9] False False"
