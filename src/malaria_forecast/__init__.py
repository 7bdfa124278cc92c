"""Malaria case forecasting toolkit for monthly province-level surveillance data.

Pipeline: ingest (or synthesize) monthly climate/population/case series,
impute missing climate values with an iterative random forest, aggregate the
18 former Burundi provinces into the 5 current ones, train univariate and
multivariate LSTM forecasters, and report RMSE tables, horizon totals, and
forecast curves.
"""

import os

# Every GEMM here is a few MFLOP at most: a BLAS thread pool only costs
# start-up time, and with N worker processes it would run N x BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .core_math import MinMaxScaler, Rng, derive_seed
from .data_model import (
    BURUNDI_REDISTRICTING,
    Dataset,
    MonthKey,
    RedistrictingMap,
    aggregate_provinces,
    ingest_csv,
    to_country_level,
    write_csv,
)
from .evaluation import ForecastReport, build_comparison, make_report, persistence_baseline, rmse
from .imputation import ForestConfig, impute_dataset, missforest_impute
from .lstm import TrainConfig, TrainedModel, forecast_test_horizon, load_model, predict, save_model, train
from .synthgen import SynthConfig, generate
from .windowing import WindowSpec, make_windows, split_train_test

__all__ = [
    "__version__",
    "MinMaxScaler",
    "Rng",
    "derive_seed",
    "BURUNDI_REDISTRICTING",
    "Dataset",
    "MonthKey",
    "RedistrictingMap",
    "aggregate_provinces",
    "ingest_csv",
    "to_country_level",
    "write_csv",
    "ForecastReport",
    "build_comparison",
    "make_report",
    "persistence_baseline",
    "rmse",
    "ForestConfig",
    "impute_dataset",
    "missforest_impute",
    "TrainConfig",
    "TrainedModel",
    "forecast_test_horizon",
    "load_model",
    "predict",
    "save_model",
    "train",
    "SynthConfig",
    "generate",
    "WindowSpec",
    "make_windows",
    "split_train_test",
]
