import numpy as np
import pytest

from conftest import same_dataset
from malaria_forecast import cli
from malaria_forecast.core_math import derive_seed
from malaria_forecast.data_model import MAX_COUNT, OLD_PROVINCES, MonthKey, ingest_csv
from malaria_forecast.errors import ConfigError
from malaria_forecast.synthgen import MAX_BASE_POPULATION, SynthConfig, case_rate, generate


class TestConfig:
    def test_defaults_are_burundi_shaped(self):
        cfg = SynthConfig()
        assert len(cfg.provinces) == 18
        assert cfg.months == 120
        assert cfg.start_year == 2010

    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(months=10)
        with pytest.raises(ConfigError):
            SynthConfig(missing_rate=1.0)
        with pytest.raises(ConfigError):
            SynthConfig(baseline=0.0)
        with pytest.raises(ConfigError):
            SynthConfig(climate_noise=-1.0)
        with pytest.raises(ConfigError):
            SynthConfig(start_month=13)

    def test_config_file_values_are_applied(self, tmp_path):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text("seed = 7\nmonths = 48\nmissing_rate = 0.2\n")
        paths = [tmp_path / name for name in ("t1.csv", "m1.csv", "t2.csv", "m2.csv")]
        assert cli.main(["synth", "--config", str(cfg_path),
                         "--out-truth", str(paths[0]), "--out-masked", str(paths[1])]) == 0
        assert cli.main(["synth", "--seed", "7", "--months", "48", "--missing-rate", "0.2",
                         "--out-truth", str(paths[2]), "--out-masked", str(paths[3])]) == 0
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[1].read_bytes() == paths[3].read_bytes()
        assert same_dataset(
            ingest_csv(paths[1]), generate(SynthConfig(seed=derive_seed(7, "synth"), months=48, missing_rate=0.2))[1]
        )

    @pytest.mark.parametrize(
        "line",
        ["bogus = 1", "provinces = Alpha", "synth.months = 30", "out_dir = x"],
        ids=["bogus", "provinces", "prefixed", "out_dir"],
    )
    def test_config_file_rejects_unknown_key(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text(line + "\n")
        out = [str(tmp_path / "t.csv"), str(tmp_path / "m.csv")]
        assert cli.main(["synth", "--config", str(cfg_path), "--out-truth", out[0], "--out-masked", out[1]]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err.splitlines() == [f"error:config: {cfg_path} line 1: unknown config key {key!r}"]
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_config_file_not_utf8_is_one_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_bytes(b"months = 30\n\xff\n")
        out = [str(tmp_path / "t.csv"), str(tmp_path / "m.csv")]
        assert cli.main(["synth", "--config", str(cfg_path), "--out-truth", out[0], "--out-masked", out[1]]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:config: {cfg_path}: not UTF-8 after line 1: invalid start byte"
        ]
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--pop-growth", "12"], "pop_growth"),  # 120 months by default
            (["--months", "30", "--pop-growth=-1e5"], "pop_growth"),
            (["--months", "30", "--pop-growth", "1e300"], "pop_growth"),
            (["--months", "30", "--rain-weight", "1e3"], "rain_weight"),
            (["--months", "30", "--temp-weight", "1e300"], "temp_weight"),
            (["--months", "30", "--baseline", "1e300"], "baseline"),
            (["--months", "30", "--case-noise", "1e300"], "case_noise"),
            (["--months", "30", "--climate-noise", "1e308"], "climate_noise"),
            # Refused as the flag is read, before anything is drawn.
            pytest.param(["--months", "30", "--climate-noise", "nan"], "--climate-noise", id="flags8-climate_noise"),
            # Finite draws, but beyond the magnitude bound of every climate value.
            (["--months", "30", "--climate-noise", "1e101"], "climate_noise"),
        ],
    )
    def test_unrepresentable_draws_are_config_errors(self, tmp_path, capsys, flags, setting):
        out = [str(tmp_path / "t.csv"), str(tmp_path / "m.csv")]
        argv = ["synth", "--seed", "1", *flags, "--out-truth", out[0], "--out-masked", out[1]]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error:config:") and setting in err
        assert list(tmp_path.iterdir()) == []

    def test_largest_representable_growth_is_accepted(self):
        # 30 months from January end in the third year: two growth steps.
        limit = (MAX_COUNT / MAX_BASE_POPULATION) ** 0.5 - 1.0
        truth, _ = generate(SynthConfig(seed=1, months=30, pop_growth=limit * (1 - 1e-9), case_noise=0.0))
        assert truth.population.max() <= MAX_COUNT
        with pytest.raises(ConfigError, match="pop_growth"):
            SynthConfig(months=30, pop_growth=limit * (1 + 1e-9))

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_pop_growth_error_names_its_source(self, tmp_path, capsys, command, where):
        # The bound spans pop_growth, months and start_month, so it is checked
        # after every setting is read; its error names where pop_growth was set.
        if command == "synth":
            key, flag = "pop_growth", "--pop-growth"
            outputs = ["--out-truth", tmp_path / "t.csv", "--out-masked", tmp_path / "m.csv"]
        else:
            key, flag, outputs = "synth.pop_growth", "--synth.pop_growth", ["--out_dir", tmp_path / "out"]
        # A flag overrides the config file's 0.5.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"seed = 1\n{key} = {12 if where == 'config' else 0.5}\n")
        argv = [command, "--config", cfg_path, *outputs, *([flag, "12"] if where == "flag" else [])]
        assert cli.main([str(a) for a in argv]) == 1
        source = f"command line: {flag}" if where == "flag" else f"{cfg_path} line 2"
        assert capsys.readouterr().err.splitlines() == [
            f"error:config: {source}: pop_growth 12.0 takes a population past 2**53 within 120 months"
        ]
        assert list(tmp_path.iterdir()) == [cfg_path]


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

        params = _draw_climate_params(np.random.default_rng(cfg.seed).spawn(4)[0])
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
