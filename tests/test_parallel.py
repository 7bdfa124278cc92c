import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_children
import malaria_forecast
from malaria_forecast import parallel
from malaria_forecast.errors import DataError, WorkerError


def slow_square(i, delay):
    time.sleep(delay)
    return i * i, os.getpid()


def failing_job(i, marker_dir, failing, delay):
    """Leave a marker, then fail if ``i`` is in ``failing`` (after ``delay``
    for every item but the last failing one)."""
    (marker_dir / str(i)).touch()
    if i != max(failing):
        time.sleep(delay)
    if i in failing:
        raise DataError(f"item {i} failed")
    return i


def dying_job(i, how):
    """Item 1 ends its worker without an answer; the others return at once."""
    if i == 1:
        if how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)
    return i


def interrupted_job(i):
    """Item 1 is interrupted, as Ctrl-C interrupts a worker; the others return."""
    if i == 1:
        raise KeyboardInterrupt
    return i


def unbuildable():
    raise RuntimeError("this reply cannot be rebuilt")


class Unbuildable:
    """Pickles in the worker; unpickling it in the parent raises."""

    def __reduce__(self):
        return unbuildable, ()


def unbuildable_reply(i):
    return Unbuildable() if i == 1 else i


def random_array(seed):
    """1 MiB of float64, more than a pipe buffer holds."""
    return np.random.default_rng(seed).standard_normal(1 << 17)


class LockedError(Exception):
    """Holds a lock, so it cannot be pickled."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class TwoPartError(Exception):
    """Pickles, but cannot be rebuilt from its one ``args`` entry."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def raise_odd(i, kind):
    raise LockedError("locked") if kind == "unpicklable" else TwoPartError("two", "parts")


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)

    return set_cpus


def test_usable_cpus_is_positive():
    assert parallel.usable_cpus() >= 1


def test_results_in_item_order(cpus):
    cpus(3)
    # Early items sleep longest, so they finish last.
    out = parallel.pmap(slow_square, range(6), [0.3, 0.25, 0.2, 0.0, 0.0, 0.0])
    assert [value for value, _ in out] == [0, 1, 4, 9, 16, 25]
    assert os.getpid() not in {pid for _, pid in out}
    assert_no_children()


def test_one_worker_is_a_plain_loop(cpus):
    cpus(1)
    out = parallel.pmap(slow_square, range(4), [0.0] * 4)
    assert out == [(i * i, os.getpid()) for i in range(4)]
    assert_no_children()


def test_empty_input():
    assert parallel.pmap(slow_square, [], []) == []


def test_failure_stops_the_queue(cpus, tmp_path):
    # Two workers: items 0 and 1 run, then 2 and 3; item 3 fails at once,
    # while 2 is still running, so 4 and 5 are never handed out.
    cpus(2)
    with pytest.raises(DataError, match="item 3 failed"):
        parallel.pmap(failing_job, range(6), [tmp_path] * 6, [{3}] * 6, [0.4] * 6)
    assert sorted(int(p.name) for p in tmp_path.iterdir()) == [0, 1, 2, 3]
    assert_no_children()


def test_lowest_failing_item_is_raised(cpus, tmp_path):
    # Item 3 fails first in time, item 1 later; the plain loop would stop at 1.
    cpus(4)
    with pytest.raises(DataError, match="item 1 failed"):
        parallel.pmap(failing_job, range(4), [tmp_path] * 4, [{1, 3}] * 4, [0.3] * 4)
    assert_no_children()


@pytest.mark.parametrize(
    "how, message",
    [("killed", r"item 1 was killed by signal 9"), ("exit", r"item 1 exited with status 3")],
)
def test_dead_worker_is_reported(cpus, how, message):
    cpus(2)
    start = time.monotonic()
    with pytest.raises(WorkerError, match=message):
        parallel.pmap(dying_job, range(4), [how] * 4)
    assert time.monotonic() - start < 5
    assert_no_children()


def test_interrupted_worker_exits_without_answering(cpus):
    cpus(2)
    with pytest.raises(WorkerError, match=r"item 1 exited with status 1 before it answered"):
        parallel.pmap(interrupted_job, range(4))
    assert_no_children()


def test_reply_the_parent_cannot_unpickle_is_raised_and_every_worker_reaped(cpus):
    # The parent's own failure mid-pool: it kills the workers, closes their
    # pipes and reaps them before the error leaves pmap.
    cpus(2)
    with pytest.raises(RuntimeError, match="this reply cannot be rebuilt"):
        parallel.pmap(unbuildable_reply, range(4))
    assert_no_children()


def test_large_result_comes_back_intact(cpus):
    cpus(2)
    out = parallel.pmap(random_array, range(3))
    assert [a.tobytes() for a in out] == [random_array(seed).tobytes() for seed in range(3)]
    assert_no_children()


@pytest.mark.parametrize(
    "kind, name", [("unpicklable", "LockedError"), ("not rebuildable", "TwoPartError")]
)
def test_exception_that_cannot_travel_becomes_runtime_error(cpus, kind, name):
    cpus(2)
    with pytest.raises(WorkerError, match=f"item 0: {name}.* cannot be pickled"):
        parallel.pmap(raise_odd, range(2), [kind] * 2)
    assert_no_children()


def test_parent_is_single_threaded_when_it_forks(cpus, monkeypatch):
    cpus(3)
    threads = []
    fork = os.fork

    def recording_fork():
        threads.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    assert parallel.pmap(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
    assert threads == [1, 1, 1]
    assert_no_children()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user_value", [None, "3"], ids=["unset", "set by the user"])
def test_importing_the_package_pins_blas_threads(user_value):
    """A fresh interpreter that imports only the package sees each BLAS
    thread variable at 1, even where the user set it."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(malaria_forecast.__file__).resolve().parents[1])
    if user_value is not None:
        env["OMP_NUM_THREADS"] = user_value
    script = f"import os, malaria_forecast; print([os.environ.get(v) for v in {BLAS_VARS!r}])"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr(["1", "1", "1"])


def test_importing_the_cli_starts_no_executor():
    """The CLI's process pool needs neither ``concurrent.futures`` nor
    ``multiprocessing``, and a fresh interpreter imports neither."""
    env = {**os.environ, "PYTHONPATH": str(Path(malaria_forecast.__file__).resolve().parents[1])}
    script = (
        "import sys, malaria_forecast.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
