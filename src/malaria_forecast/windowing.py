"""Sliding-window supervised datasets and the chronological train/test split.

A window of ``lookback`` consecutive months predicts the next month's case
count. The univariate variant uses only lagged cases (feature width 1); the
multivariate variant adds temperature, rainfall, humidity, and population
(width 5, cases last). Scaling parameters are fitted on the training
partition only and applied to both partitions, so no test information leaks
into the transform. :func:`split_index` alone judges a split: a series with
fewer than two windows is a data fault, and a fraction that empties a
partition of a longer series is a config fault. :func:`scale_inputs` scales
the inputs of every window, and refuses a value that would scale beyond
:data:`data_model.MAX_MAGNITUDE`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core_math import MinMaxScaler
from .data_model import CLIMATE_FIELDS, MAX_MAGNITUDE, Dataset, MonthKey
from .errors import ConfigError, DataError

# The columns of each variant's windows, in order.
FEATURES = {"univariate": ("cases",), "multivariate": (*CLIMATE_FIELDS, "population", "cases")}
VARIANTS = tuple(FEATURES)


@dataclass(frozen=True)
class WindowSpec:
    lookback: int
    variant: str

    def __post_init__(self):
        if self.lookback < 1:
            raise ValueError(f"lookback must be >= 1, got {self.lookback}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def feature_width(self) -> int:
        return len(FEATURES[self.variant])


@dataclass
class WindowedDataset:
    """Supervised samples in chronological order.

    ``inputs`` is (samples, lookback, features) and ``targets`` the
    next-month case count per sample; ``months`` holds each target's month,
    and ``province`` names the series the windows were cut from.
    Fresh output of :func:`make_windows` is unscaled with no scalers; the
    partitions returned by :func:`split_train_test` are scaled and carry the
    train-fitted scalers.
    """

    spec: WindowSpec
    inputs: np.ndarray
    targets: np.ndarray
    months: list[MonthKey]
    province: str
    input_scaler: MinMaxScaler | None = None
    target_scaler: MinMaxScaler | None = None

    @property
    def samples(self) -> int:
        return self.inputs.shape[0]


def make_windows(dataset: Dataset, province: str, spec: WindowSpec) -> WindowedDataset:
    """Slice one complete province series into (window, next-month cases)
    pairs: ``sliding_window_view`` over the month axis, copied once."""
    p = dataset.row(province)
    n = dataset.cases.shape[1]
    if n <= spec.lookback:
        raise DataError(
            f"{province}: series has {n} months but lookback {spec.lookback} needs at least {spec.lookback + 1}"
        )
    cases = dataset.cases[p].astype(np.float64)
    if spec.variant == "univariate":
        rows = cases[:, None]
    else:
        missing = np.argwhere(np.isnan(dataset.climate[p]))
        if missing.size:
            t, k = missing[0]
            raise DataError(
                f"{province} {dataset.months()[t]}: missing {CLIMATE_FIELDS[k]} value; impute before windowing"
            )
        rows = np.column_stack([dataset.climate[p], dataset.population[p], cases])
    inputs = sliding_window_view(rows[:-1], spec.lookback, axis=0).transpose(0, 2, 1).copy()
    targets, months = cases[spec.lookback :], dataset.months()[spec.lookback :]
    return WindowedDataset(spec=spec, inputs=inputs, targets=targets, months=months, province=province)


def split_index(months: int, lookback: int, train_fraction: float) -> int:
    """Size of the training partition of the ``months - lookback`` windows of
    a series, floor(fraction * windows). DataError if the series has fewer
    than two windows, which no fraction splits; ConfigError if the fraction
    leaves a partition of a longer series empty."""
    samples, where = months - lookback, f"{months} months at window.lookback {lookback}"
    if samples < 2:
        raise DataError(f"{where}: {max(samples, 0)} windows; a train/test split needs {lookback + 2} months")
    split = math.floor(train_fraction * samples) if 0.0 < train_fraction < 1.0 else 0
    if not 0 < split < samples:
        raise ConfigError(
            f"{where}: split of {samples} samples at fraction {train_fraction} leaves an empty partition"
        )
    return split


def split_train_test(
    windows: WindowedDataset, train_fraction: float
) -> tuple[WindowedDataset, WindowedDataset]:
    """Chronological split at :func:`split_index`, with its errors; no shuffling.

    Min-max scalers are fitted on the training inputs and targets only, then
    applied to both partitions. Test values outside the training range land
    outside [0, 1]; that is expected and preserved, up to the limit of
    :func:`scale_inputs`.
    """
    n = windows.samples
    split = split_index(n + windows.spec.lookback, windows.spec.lookback, train_fraction)
    width = windows.spec.feature_width
    input_scaler = MinMaxScaler.fit(windows.inputs[:split].reshape(-1, width))
    target_scaler = MinMaxScaler.fit(windows.targets[:split].reshape(-1, 1))

    def _partition(lo, hi):
        return WindowedDataset(
            spec=windows.spec,
            inputs=scale_inputs(windows, input_scaler, windows.inputs[lo:hi]),
            targets=target_scaler.transform(windows.targets[lo:hi].reshape(-1, 1)).ravel(),
            months=windows.months[lo:hi],
            province=windows.province,
            input_scaler=input_scaler,
            target_scaler=target_scaler,
        )

    return _partition(0, split), _partition(split, n)


def scale_inputs(windows: WindowedDataset, scaler: MinMaxScaler, inputs) -> np.ndarray:
    """``inputs``, cut like ``windows``, scaled by ``scaler``; DataError naming
    the region and feature of a value that would scale beyond MAX_MAGNITUDE."""
    span = scaler.maxs - scaler.mins
    far = np.argwhere((np.abs(inputs - scaler.mins) / MAX_MAGNITUDE > span) & (span > 0.0))
    if far.size:
        name, value = FEATURES[windows.spec.variant][far[0][-1]], inputs[tuple(far[0])]
        raise DataError(f"{windows.province} {name}: {value} is too far outside the training range to scale")
    return scaler.transform(inputs)
