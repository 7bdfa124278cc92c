"""Seeded synthetic surveillance datasets with known ground truth.

Generates Burundi-shaped monthly series for the 18 old provinces: seasonal
climate (period-12 sinusoids plus noise), annually constant populations, and
case counts driven by population and 1-2 month lagged climate. A masked copy
with climate values removed completely at random accompanies the truth, so
imputation and forecasting can be scored against known values.
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


@dataclass(frozen=True)
class ClimateParams:
    """Per-province seasonal parameters: level, amplitude, phase (months)."""

    temp_mean: float
    temp_amp: float
    temp_phase: float
    rain_mean: float
    rain_amp: float
    rain_phase: float
    hum_mean: float
    hum_amp: float
    hum_phase: float


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


def _draw_climate_params(rng: np.random.Generator) -> ClimateParams:
    return ClimateParams(
        temp_mean=rng.uniform(18.0, 24.0),
        temp_amp=rng.uniform(2.0, 4.0),
        temp_phase=rng.uniform(0.0, 12.0),
        rain_mean=rng.uniform(90.0, 140.0),
        rain_amp=rng.uniform(30.0, 60.0),
        rain_phase=rng.uniform(0.0, 12.0),
        hum_mean=rng.uniform(60.0, 80.0),
        hum_amp=rng.uniform(5.0, 12.0),
        hum_phase=rng.uniform(0.0, 12.0),
    )


def _season(level: float, amp: float, phase: float, t: int) -> float:
    return level + amp * math.sin(2.0 * math.pi * (t + phase) / 12.0)


def case_rate(
    cfg: SynthConfig,
    params: ClimateParams,
    population: int,
    rain_lag1: float | None,
    temp_lag2: float | None,
) -> float:
    """Deterministic incidence rate for one province-month.

    Lagged climate enters as a standardized anomaly of the seasonal signal;
    unavailable lags (series start) contribute zero.
    """
    z_rain = 0.0
    if rain_lag1 is not None and params.rain_amp > 0:
        z_rain = (rain_lag1 - params.rain_mean) / (params.rain_amp / math.sqrt(2.0))
    z_temp = 0.0
    if temp_lag2 is not None and params.temp_amp > 0:
        z_temp = (temp_lag2 - params.temp_mean) / (params.temp_amp / math.sqrt(2.0))
    try:
        return cfg.baseline * population * math.exp(cfg.rain_weight * z_rain + cfg.temp_weight * z_temp)
    except OverflowError:
        return math.inf


def generate(cfg: SynthConfig) -> tuple[Dataset, Dataset]:
    """Produce ``(truth, masked)`` datasets for the configured provinces.

    Both datasets share population and case columns; the masked copy has
    climate cells removed uniformly at random at ``cfg.missing_rate``.
    Identical configs produce bit-identical output.
    """
    r_params, r_climate, r_cases, r_mask = np.random.default_rng(cfg.seed).spawn(4)
    years = [cfg.start_year + (cfg.start_month - 1 + t) // 12 for t in range(cfg.months)]

    params, population = {}, {}
    for province in cfg.provinces:
        params[province] = _draw_climate_params(r_params)
        base = r_params.uniform(250_000.0, MAX_BASE_POPULATION)
        population[province] = [
            max(1, round(base * (1.0 + cfg.pop_growth) ** (year - cfg.start_year)))
            for year in years
        ]

    truth, masked, cases = {}, {}, {}
    for province in cfg.provinces:
        p = params[province]
        rows = []
        for t in range(cfg.months):
            noise_t = r_climate.normal(0.0, 1.0)
            noise_r = r_climate.normal(0.0, 1.0)
            noise_h = r_climate.normal(0.0, 1.0)
            rows.append((
                _season(p.temp_mean, p.temp_amp, p.temp_phase, t) + cfg.climate_noise * 0.4 * noise_t,
                max(0.0, _season(p.rain_mean, p.rain_amp, p.rain_phase, t) + cfg.climate_noise * 8.0 * noise_r),
                min(100.0, max(0.0, _season(p.hum_mean, p.hum_amp, p.hum_phase, t) + cfg.climate_noise * 2.0 * noise_h)),
            ))
        truth[province] = rows

        if not all(abs(value) <= MAX_MAGNITUDE for row in rows for value in row):
            raise ConfigError(f"climate_noise {cfg.climate_noise} draws a climate value beyond 1e100")
        counts = []
        for t, pop in enumerate(population[province]):
            rate = case_rate(
                cfg,
                p,
                pop,
                rows[t - 1][1] if t >= 1 else None,
                rows[t - 2][0] if t >= 2 else None,
            )
            if not rate <= MAX_COUNT:  # NaN too
                raise ConfigError(
                    f"case rate {rate} of {province} in month {t} is beyond 2**53; "
                    "lower baseline, rain_weight or temp_weight"
                )
            count = rate
            if cfg.case_noise > 0:
                count = rate + cfg.case_noise * (int(r_cases.poisson(rate)) - rate)
                if count > MAX_COUNT:
                    raise ConfigError(f"case_noise {cfg.case_noise} draws a count beyond 2**53")
            counts.append(round(max(0.0, count)))
        cases[province] = counts
        masked[province] = [
            [value if r_mask.uniform(0.0, 1.0) >= cfg.missing_rate else math.nan for value in row]
            for row in rows
        ]

    names = sorted(cfg.provinces)
    start = MonthKey(cfg.start_year, cfg.start_month)
    return tuple(
        Dataset(
            names,
            start,
            [climate[n] for n in names],
            [population[n] for n in names],
            [cases[n] for n in names],
        )
        for climate in (truth, masked)
    )
