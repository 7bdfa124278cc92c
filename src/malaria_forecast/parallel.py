"""Map a function over independent items on forked worker processes.

The pipeline's units are independent: each old province is imputed with its
own child generator, and each (region, variant) model is trained and
forecast from its own derived seed. :func:`pmap` runs such units on up to one
worker process per usable CPU and returns their results in item order, so
what a caller writes does not depend on the worker count or the schedule.

Workers are forked: they start with the parent's modules as they are, so a
function is sent by its module-level name and nothing is imported again.
Fork (unlike spawn or forkserver) also starts no helper process that could
outlive the pool. The program's own processes run no threads when a pool is
made, since the package pins BLAS to one thread.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from itertools import islice

__all__ = ["pmap", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pmap(fn, *iterables) -> list:
    """``[fn(*args) for args in zip(*iterables)]`` on ``min(usable CPUs,
    items)`` worker processes; with one worker, a plain loop in this process.

    At most one item per worker is handed to the pool at a time, and none
    after an item has failed; the items in flight then finish, and the
    exception of the lowest failing item is raised, as in the plain loop.
    Every worker has exited and been reaped when this returns or raises.
    """
    items = list(zip(*iterables))
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return [fn(*args) for args in items]
    # A forked worker flushes its copy of any buffered output when it exits.
    sys.stdout.flush()
    sys.stderr.flush()
    results = [None] * len(items)
    errors: dict[int, Exception] = {}
    pending = {}
    queued = iter(range(len(items)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        while True:
            for index in islice(queued, 0 if errors else workers - len(pending)):
                pending[pool.submit(fn, *items[index])] = index
            if not pending:
                break
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    results[index] = future.result()
                except Exception as exc:
                    errors[index] = exc
    if errors:
        raise errors[min(errors)]
    return results
