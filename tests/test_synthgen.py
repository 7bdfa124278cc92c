import numpy as np
import pytest

from conftest import same_dataset
from malaria_forecast.data_model import OLD_PROVINCES, MonthKey
from malaria_forecast.errors import ConfigError
from malaria_forecast.synthgen import SynthConfig, case_rate, generate


class TestConfig:
    def test_defaults_are_burundi_shaped(self):
        cfg = SynthConfig()
        assert len(cfg.provinces) == 18
        assert cfg.months == 156
        assert cfg.start_year == 2010

    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(months=10).validate()
        with pytest.raises(ConfigError):
            SynthConfig(missing_rate=1.0).validate()
        with pytest.raises(ConfigError):
            SynthConfig(baseline=0.0).validate()
        with pytest.raises(ConfigError):
            SynthConfig(climate_noise=-1.0).validate()

    def test_from_mapping(self):
        cfg = SynthConfig.from_mapping({"seed": "7", "months": "48", "missing_rate": "0.2"})
        assert cfg.seed == 7
        assert cfg.months == 48
        assert cfg.missing_rate == 0.2

    def test_from_mapping_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown"):
            SynthConfig.from_mapping({"bogus": "1"})


class TestGenerate:
    def test_shape_and_invariants(self):
        truth, masked = generate(SynthConfig(seed=1, months=36, start_month=5))
        assert truth.provinces == sorted(OLD_PROVINCES)
        assert len(truth.months()) == 36
        assert truth.months()[0] == MonthKey(2010, 5)
        # The Dataset constructor already enforces the value rules;
        # spot-check the synthetic ranges on top of them.
        assert (truth.population > 0).all()
        assert (truth.cases >= 0).all()
        assert ((truth.climate[..., 2] >= 0.0) & (truth.climate[..., 2] <= 100.0)).all()
        assert (truth.climate[..., 1] >= 0.0).all()
        # Population is constant within a calendar year and steps up in January.
        january = np.array([m.month == 1 for m in truth.months()])
        steps = np.diff(truth.population, axis=1)
        assert (steps[:, ~january[1:]] == 0).all()
        assert (steps[:, january[1:]] > 0).all()
        assert january[1:].sum() == 3

    def test_zero_missingness_masked_equals_truth(self):
        truth, masked = generate(SynthConfig(seed=2, months=30, missing_rate=0.0))
        assert same_dataset(truth, masked)

    def test_masking_touches_only_climate(self):
        truth, masked = generate(SynthConfig(seed=3, months=30, missing_rate=0.4))
        assert np.array_equal(masked.population, truth.population)
        assert np.array_equal(masked.cases, truth.cases)
        missing = np.isnan(masked.climate)
        assert np.array_equal(masked.climate[~missing], truth.climate[~missing])
        assert missing.any()

    def test_degenerate_case_model(self):
        cfg = SynthConfig(
            seed=4, months=24, provinces=("Alpha",), missing_rate=0.0,
            climate_noise=0.0, case_noise=0.0, rain_weight=0.0, temp_weight=0.0,
            pop_growth=0.0, baseline=0.004,
        )
        truth, _ = generate(cfg)
        for population, cases in zip(truth.population[0].tolist(), truth.cases[0].tolist()):
            assert cases == round(cfg.baseline * population)

    def test_bit_identical_given_seed(self):
        cfg = SynthConfig(seed=5, months=26, missing_rate=0.1)
        a = generate(cfg)
        b = generate(cfg)
        assert same_dataset(a[0], b[0])
        assert same_dataset(a[1], b[1])

    def test_lag_structure_recoverable_without_noise(self):
        # With zero noise, next-month cases follow exactly from the covariates.
        cfg = SynthConfig(
            seed=6, months=40, provinces=("Alpha",), missing_rate=0.0,
            climate_noise=0.0, case_noise=0.0, rain_weight=0.5, temp_weight=0.3,
        )
        truth, _ = generate(cfg)
        climate = truth.climate[0].tolist()
        population, cases = truth.population[0].tolist(), truth.cases[0].tolist()
        from malaria_forecast.synthgen import _draw_climate_params
        from malaria_forecast.core_math import Rng

        params = _draw_climate_params(Rng(cfg.seed).split(4)[0])
        for t in range(2, len(cases)):
            rate = case_rate(
                cfg,
                params,
                population[t],
                climate[t - 1][1],
                climate[t - 2][0],
            )
            assert cases[t] == round(rate)

    def test_distinct_seeds_differ(self):
        a, _ = generate(SynthConfig(seed=7, months=24, provinces=("Alpha",)))
        b, _ = generate(SynthConfig(seed=8, months=24, provinces=("Alpha",)))
        assert not same_dataset(a, b)
