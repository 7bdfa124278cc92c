import multiprocessing
import os

import numpy as np
import pytest

from malaria_forecast.data_model import Dataset, MonthKey, MonthlyRecord


def walk_tree(forest, t, X):
    """Row-by-row walk of tree ``t`` of a flat-array forest."""
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = t
        while forest.feature[node] >= 0:
            go_left = row[forest.feature[node]] <= forest.threshold[node]
            node = forest.left[node] if go_left else forest.right[node]
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


def make_record(province, month, temp=20.0, rain=100.0, hum=70.0, population=1000, cases=10):
    return MonthlyRecord(province, month, temp, rain, hum, population, cases)


def make_series(province, n, start=(2010, 1), cases=None, **kwargs):
    months = month_seq(start[0], start[1], n)
    out = []
    for i, m in enumerate(months):
        c = cases[i] if cases is not None else 10 + i
        out.append(make_record(province, m, cases=int(c), **kwargs))
    return out


def sinusoid_series(n=200, amplitude=40.0, mean=60.0, province="Signal"):
    """Noiseless period-12 case series for learnability checks."""
    months = month_seq(2000, 1, n)
    records = []
    for t, m in enumerate(months):
        cases = round(mean + amplitude * np.sin(2.0 * np.pi * t / 12.0))
        records.append(make_record(province, m, cases=int(cases)))
    return records


@pytest.fixture
def two_province_dataset():
    series = {
        "Alpha": make_series("Alpha", 6),
        "Beta": make_series("Beta", 6, cases=[5, 5, 5, 5, 5, 5]),
    }
    return Dataset("old", series)
