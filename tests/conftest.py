import csv
import multiprocessing
import os

import numpy as np
import pytest

from malaria_forecast.data_model import CLIMATE_FIELDS, Dataset, MonthKey
from malaria_forecast.imputation import _checked_inputs, _fit_levelwise


def gate_activation(z, scale):
    """Reference LSTM gate activation ``scale·tanh(scale·z) + (1 − scale)``.

    With scale ½ this is the logistic function, since σ(z) = ½·tanh(z/2) + ½;
    with scale 1 it is tanh. ``scale`` broadcasts against ``z``, so one call
    activates a row of gates with the logistic and tanh blocks side by side.
    ``lstm.forward`` folds the ½ into the weights and must match this bit for
    bit.
    """
    out = np.tanh(np.multiply(scale, z))
    out *= scale
    out += 1.0 - scale
    return out


def fit_tree(X, y, config, rng):
    """One CART regression tree: a one-tree forest whose only bootstrap is
    every row once. ``rng`` draws the feature subsets."""
    X, y = _checked_inputs(X, y)
    return _fit_levelwise(X, y, np.ones((1, X.shape[0]), dtype=np.intp), config, rng)


def read_curves(path):
    """Months, observed and predicted series of a curve CSV written by
    ``evaluation.emit_curves``."""
    months, observed, predicted = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["month", "observed", "predicted"]:
            raise ValueError(f"{path}: unexpected curve header {header!r}")
        for row in reader:
            year, month = row[0].split("-")
            months.append(MonthKey(int(year), int(month)))
            observed.append(float(row[1]))
            predicted.append(float(row[2]))
    return months, np.asarray(observed), np.asarray(predicted)


def walk_tree(forest, t, X):
    """Row-by-row walk of tree ``t`` of a flat-array forest."""
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = t
        while forest.feature[node] >= 0:
            go_left = row[forest.feature[node]] <= forest.threshold[node]
            node = forest.left[node] if go_left else forest.left[node] + 1
        out[i] = forest.value[node]
    return out


def assert_no_children():
    """Every child process has exited and been reaped. ``waitpid`` comes
    first, because ``active_children`` reaps the exited ones it knows."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []


def month_seq(start_year, start_month, n):
    months = [MonthKey(start_year, start_month)]
    while len(months) < n:
        months.append(months[-1].next())
    return months


def make_series(province, n, start=(2010, 1), cases=None, temp=20.0, rain=100.0, hum=70.0, population=1000):
    """A one-province dataset of ``n`` months; cases default to 10, 11, ..."""
    cases = [10 + i for i in range(n)] if cases is None else [int(c) for c in cases]
    return Dataset(
        [province],
        MonthKey(*start),
        [[[temp, rain, hum]] * n],
        np.full((1, n), population, dtype=np.int64),
        np.array([cases], dtype=np.int64),
    )


def sinusoid_series(n=200, amplitude=40.0, mean=60.0, province="Signal"):
    """Noiseless period-12 case series for learnability checks."""
    cases = [round(mean + amplitude * np.sin(2.0 * np.pi * t / 12.0)) for t in range(n)]
    return make_series(province, n, start=(2000, 1), cases=cases)


def month_slice(dataset, lo=None, hi=None):
    """The dataset restricted to months ``lo:hi`` (slice semantics)."""
    t = range(dataset.cases.shape[1])[lo:hi]
    return Dataset(
        dataset.provinces,
        dataset.months()[t.start],
        dataset.climate[:, t.start : t.stop],
        dataset.population[:, t.start : t.stop],
        dataset.cases[:, t.start : t.stop],
    )


def with_cell(dataset, province, t, **values):
    """A copy of ``dataset`` with fields of one province-month replaced
    (climate fields by name, ``population``/``cases``); None means NaN."""
    climate, population, cases = (a.copy() for a in (dataset.climate, dataset.population, dataset.cases))
    p = dataset.row(province)
    for name, value in values.items():
        if name in CLIMATE_FIELDS:
            climate[p, t, CLIMATE_FIELDS.index(name)] = np.nan if value is None else value
        else:
            {"population": population, "cases": cases}[name][p, t] = value
    return Dataset(dataset.provinces, dataset.start, climate, population, cases)


def same_dataset(a, b):
    """Same provinces and months, and bit-identical arrays (NaN where NaN)."""
    return (
        a.provinces == b.provinces
        and a.start == b.start
        and a.climate.tobytes() == b.climate.tobytes()
        and np.array_equal(a.population, b.population)
        and np.array_equal(a.cases, b.cases)
    )


@pytest.fixture
def two_province_dataset():
    alpha = make_series("Alpha", 6)
    beta = make_series("Beta", 6, cases=[5, 5, 5, 5, 5, 5])
    return Dataset(
        ["Alpha", "Beta"],
        alpha.start,
        np.concatenate([alpha.climate, beta.climate]),
        np.concatenate([alpha.population, beta.population]),
        np.concatenate([alpha.cases, beta.cases]),
    )
