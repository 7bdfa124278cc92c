"""Malaria case forecasting toolkit for monthly province-level surveillance data.

Pipeline: ingest (or synthesize) monthly climate/population/case series,
impute missing climate values with an iterative random forest, aggregate the
18 former Burundi provinces into the 5 current ones, train univariate and
multivariate LSTM forecasters, and report RMSE tables, horizon totals, and
forecast curves. The API lives in the submodules (``malaria_forecast.cli``,
``.imputation``, ``.lstm`` and so on); the package itself exports only
``__version__``.
"""

import os

# Every GEMM here is a few MFLOP at most: a BLAS thread pool only costs
# start-up time, and with N worker processes it would run N x BLAS threads.
# OpenBLAS also rounds a large GEMM differently at each thread count, so the
# count is pinned, not a setting, and no output depends on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

__version__ = "0.1.0"
