"""Time one LSTM training step of the checkout on ``PYTHONPATH``.

Run: ``PYTHONPATH=src python tools/step_time.py``. A step is what ``train``
does per batch: ``forward`` into a reused workspace, ``backward`` and
``adam_step``, at hidden size 32 and lookback 12, for batches of 1, 8 and 86
windows (a recursive forecast, a minibatch, the full batch of a 120-month
series) with 1 and 5 features. Two more rows time ``predict``'s path: a
``forward`` of one window into a new workspace, with 1 and 5 features. For
each row it prints the minimum over REPEATS sets of the mean time of STEPS
calls; the sets of the rows are interleaved, so that slow drift of the
machine's speed reaches every row alike. To compare two checkouts, run it
on each in turn, a few times.

The package is imported before numpy, so BLAS runs one thread, as in the CLI.
"""

import sys
import time

from malaria_forecast.lstm import TrainConfig, adam_step, backward, forward, init_params

import numpy as np

HIDDEN, LOOKBACK = 32, 12
SHAPES = [(n, features) for n in (1, 8, 86) for features in (1, 5)]
REPEATS, STEPS = 15, 40


def stepper(n: int, features: int):
    """A function that runs STEPS training steps on one fixed random batch."""
    rng = np.random.default_rng(n * 10 + features)
    params = init_params(features, HIDDEN, rng)
    x, y = rng.uniform(0.0, 1.0, size=(n, LOOKBACK, features)), rng.uniform(0.0, 1.0, size=n)
    m, v = np.zeros_like(params.theta), np.zeros_like(params.theta)
    scratch = np.empty((2, params.theta.size))
    cfg = TrainConfig(hidden=HIDDEN)
    _, cache = forward(params, x)
    count = [0]

    def run():
        for _ in range(STEPS):
            count[0] += 1
            preds, _ = forward(params, x, cache)
            adam_step(params, backward(params, cache, 2.0 * (preds - y) / n), m, v, count[0], cfg, scratch)

    return run


def fresh_forward(features: int):
    """A function that runs STEPS forward passes of one window, each into a
    new workspace, as ``predict`` does."""
    rng = np.random.default_rng(features)
    params = init_params(features, HIDDEN, rng)
    x = rng.uniform(0.0, 1.0, size=(1, LOOKBACK, features))

    def run():
        for _ in range(STEPS):
            forward(params, x)

    return run


def main() -> int:
    runs = {f"step n={n:<3d} F={features}": stepper(n, features) for n, features in SHAPES}
    runs |= {f"fresh forward n=1   F={features}": fresh_forward(features) for features in (1, 5)}
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(REPEATS):
        for label, run in runs.items():
            start = time.perf_counter()
            run()
            best[label] = min(best[label], (time.perf_counter() - start) / STEPS)
    print(f"time per call, min of {REPEATS} x {STEPS} calls, H={HIDDEN} L={LOOKBACK}")
    for label, seconds in best.items():
        print(f"{label:<28s} {1e6 * seconds:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
