"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the speed of a vCPU drifts by 10-30% over minutes, as
other tenants load the cores it shares. Timing this loop right before and
right after each pipeline run, on each CPU in turn, tells the benchmark how
fast the machine was around that run, so the drift can be divided out (see
``adjusted_s``).

The loop does the same work on every call: stable argsorts and cumulative
sums over 120-row columns (a tree split scan), a dictionary update loop
(interpreter work), and one 86x44 @ 44x128 product (an LSTM-sized GEMM).
"""

from __future__ import annotations

import os
import time

import numpy as np

UNITS = 2500  # per CPU; about 0.45 s on the VM the benchmark was built on
NOMINAL_S = 0.45  # the loop's time per CPU on that VM; sets the scale of ``adjusted_s``
MAX_CPUS = 4

_rng = np.random.default_rng(0)
_X = _rng.random((120, 8))
_Y = _rng.random(120)
_A = _rng.random((86, 44))
_B = _rng.random((44, 128))


def _unit() -> float:
    total = 0.0
    for j in range(_X.shape[1]):
        order = np.argsort(_X[:, j], kind="stable")
        total += float(np.cumsum(_Y[order])[-1])
    counts: dict[int, int] = {}
    for i in range(200):
        counts[i % 17] = counts.get(i % 17, 0) + i
    return total + float((_A @ _B).sum()) + counts[3]


def reference_s() -> float:
    """Mean time of the loop over the first ``MAX_CPUS`` allowed CPUs, each
    pinned in turn; the process's CPU set is restored afterwards."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            for _ in range(UNITS):
                _unit()
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def adjusted_s(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` rescaled to the speed at which the loop takes ``NOMINAL_S``."""
    return wall_s * NOMINAL_S / ((before_s + after_s) / 2.0)
