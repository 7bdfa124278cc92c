"""Seeded synthetic surveillance datasets with known ground truth.

Generates Burundi-shaped monthly series for the 18 old provinces: seasonal
climate (period-12 sinusoids plus noise), annually constant populations, and
case counts driven by population and 1-2 month lagged climate. A masked copy
with climate values removed completely at random accompanies the truth, so
imputation and forecasting can be scored against known values.

Four generators spawned from the seed each draw in one call, province by
province in ``provinces`` order, then by month, then by field: ``params`` the
ten :data:`_RANGES` per province, ``climate`` three normals and ``mask`` three
uniforms per month, and ``cases`` one Poisson count per month if case_noise >
0. So no province's series depends on later ones; rows are sorted by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import FINITE, POSITIVE_FINITE, check_fields, ruled
from .data_model import MAX_COUNT, MAX_MAGNITUDE, OLD_PROVINCES, Dataset, MonthKey
from .errors import ConfigError

MAX_BASE_POPULATION = 950_000.0  # a province's first-year population is below it
_NOISE = (lambda v: 0.0 <= v < math.inf, "must be non-negative and finite")
# The uniform (lows, highs) of a province's draws, in draw order: level, amplitude
# and phase (months) of temperature, rainfall and humidity; first-year population.
_RANGES = np.array([(18.0, 24.0), (2.0, 4.0), (0.0, 12.0), (90.0, 140.0), (30.0, 60.0), (0.0, 12.0),
                    (60.0, 80.0), (5.0, 12.0), (0.0, 12.0), (250_000.0, MAX_BASE_POPULATION)]).T


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one synthetic dataset.

    ``case_noise`` interpolates between the deterministic case rate (0.0) and
    full Poisson sampling (1.0); counts stay integral and non-negative either
    way. ``rain_weight``/``temp_weight`` act on rainfall lagged one month and
    temperature lagged two months. With all noise at zero, next-month cases
    are an exact function of the current covariates.
    """

    seed: int = 0
    months: int = ruled(120, (lambda v: v >= 22, "must be >= 22"))
    # A series of any length that fits in memory then writes only years that
    # fit in 64 bits, as the CSV reader requires.
    start_year: int = ruled(2010, (lambda v: -(2**62) <= v < 2**62, "must be in [-2**62, 2**62)"))
    start_month: int = ruled(1, (lambda v: 1 <= v <= 12, "must be in 1..12"))
    provinces: tuple[str, ...] = ruled(tuple(OLD_PROVINCES), (bool, "must be non-empty"))
    missing_rate: float = ruled(0.05, (lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"))
    climate_noise: float = ruled(1.0, _NOISE)
    case_noise: float = ruled(1.0, _NOISE)
    baseline: float = ruled(0.004, POSITIVE_FINITE)
    rain_weight: float = ruled(0.35, FINITE)
    temp_weight: float = ruled(0.2, FINITE)
    pop_growth: float = ruled(0.02, FINITE)

    def __post_init__(self):
        check_fields(self)
        if len(set(self.provinces)) < len(self.provinces) or not all(self.provinces):
            raise ConfigError(f"provinces must be distinct non-empty names, got {self.provinces}")
        # The largest population drawn is below MAX_BASE_POPULATION times
        # the growth factor of the last year.
        years = (self.start_month + self.months - 2) // 12
        try:
            peak = MAX_BASE_POPULATION * abs(1.0 + self.pop_growth) ** years
        except OverflowError:
            peak = math.inf
        if peak > MAX_COUNT:
            raise ConfigError(
                f"pop_growth {self.pop_growth} takes a population past 2**53 within {self.months} months"
            )


def _exp(x: float) -> float:
    """``math.exp``, inf past its range. numpy's SIMD ``exp`` rounds some
    arguments differently, and a rate one ulp off can draw another count."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def case_rate(cfg: SynthConfig, level, amp, population, climate) -> np.ndarray:
    """Deterministic incidence rate of each province-month (P × T). Lagged
    climate (P × T × 3) enters as its anomaly from the seasonal ``level`` over
    the sinusoid's RMS, ``amp``/√2; unavailable lags (series start) add zero."""
    z = (climate - level) / (amp / math.sqrt(2.0))
    arg = np.zeros(population.shape)
    arg[:, 1:] += cfg.rain_weight * z[:, :-1, 1]
    arg[:, 2:] += cfg.temp_weight * z[:, :-2, 0]
    return cfg.baseline * population * np.fromiter(map(_exp, arg.ravel().tolist()), float, arg.size).reshape(arg.shape)


def generate(cfg: SynthConfig) -> tuple[Dataset, Dataset]:
    """``(truth, masked)`` datasets sharing population and cases; the masked
    copy has climate cells removed uniformly at random at ``cfg.missing_rate``.
    Identical configs produce bit-identical output."""
    r_params, r_climate, r_cases, r_mask = np.random.default_rng(cfg.seed).spawn(4)
    shape = (len(cfg.provinces), cfg.months)
    params = r_params.uniform(*_RANGES, size=(shape[0], 10))
    level, amp, phase = (params[:, None, k:9:3] for k in range(3))  # P × 1 × field
    year = (cfg.start_month - 1 + np.arange(cfg.months)) // 12
    growth = np.array([(1.0 + cfg.pop_growth) ** k for k in range(year[-1] + 1)])
    population = np.maximum(np.rint(params[:, 9:] * growth[year]), 1.0).astype(np.int64)
    # Huge noise, baseline or weights overflow to inf here and are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        climate = level + amp * np.sin(2.0 * math.pi * (np.arange(cfg.months)[:, None] + phase) / 12.0)
        climate += cfg.climate_noise * np.array([0.4, 8.0, 2.0]) * r_climate.normal(size=(*shape, 3))
        climate[..., 1] = np.maximum(climate[..., 1], 0.0)
        climate[..., 2] = np.clip(climate[..., 2], 0.0, 100.0)
        rate = case_rate(cfg, level, amp, population, climate)
        # Counts are drawn up to the first bad climate row or rate, in draw order.
        climate_ok = (np.abs(climate) <= MAX_MAGNITUDE).all(axis=(1, 2))
        ok = (rate <= MAX_COUNT) & climate_ok[:, None]
        stop = ok.size if ok.all() else int(np.argmin(ok))
        count = rate.ravel()[:stop]
        if cfg.case_noise > 0:
            count = count + cfg.case_noise * (r_cases.poisson(count) - count)
    if (count > MAX_COUNT).any():
        raise ConfigError(f"case_noise {cfg.case_noise} draws a count beyond 2**53")
    if stop < ok.size:
        p, t = divmod(stop, cfg.months)
        if not climate_ok[p]:
            raise ConfigError(f"climate_noise {cfg.climate_noise} draws a climate value beyond 1e100")
        raise ConfigError(f"case rate {float(rate[p, t])} of {cfg.provinces[p]} in month {t} is beyond 2**53; "
                          "lower baseline, rain_weight or temp_weight")
    cases = np.rint(np.maximum(count, 0.0)).astype(np.int64).reshape(shape)
    masked = np.where(r_mask.uniform(size=(*shape, 3)) >= cfg.missing_rate, climate, np.nan)
    order = sorted(range(shape[0]), key=cfg.provinces.__getitem__)
    names, start = [cfg.provinces[i] for i in order], MonthKey(cfg.start_year, cfg.start_month)
    return tuple(Dataset(names, start, c[order], population[order], cases[order]) for c in (climate, masked))
