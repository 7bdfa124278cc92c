import math
import re

import numpy as np
import pytest

from conftest import same_dataset
from malaria_forecast import cli
from malaria_forecast.core_math import derive_seed
from malaria_forecast.data_model import MAX_COUNT, OLD_PROVINCES, MonthKey, ingest_csv
from malaria_forecast.errors import ConfigError
from malaria_forecast.synthgen import _RANGES, MAX_BASE_POPULATION, SynthConfig, generate


def scalar_reference(cfg):
    """``generate`` one value at a time, in draw order: ``(names, climate,
    masked climate, population, cases)``, rows sorted by name. It raises the
    same ConfigError, at the first bad (province, month) it reaches."""
    r_params, r_climate, r_cases, r_mask = np.random.default_rng(cfg.seed).spawn(4)
    draws = [[r_params.uniform(low, high) for low, high in zip(*_RANGES)] for _ in cfg.provinces]
    series = {}
    for name, d in zip(cfg.provinces, draws):
        years = [(cfg.start_month - 1 + t) // 12 for t in range(cfg.months)]
        population = [max(1, round(d[9] * (1.0 + cfg.pop_growth) ** year)) for year in years]
        climate = []
        for t in range(cfg.months):
            row = [d[3 * f] + d[3 * f + 1] * math.sin(2.0 * math.pi * (t + d[3 * f + 2]) / 12.0)
                   + cfg.climate_noise * sd * r_climate.normal(0.0, 1.0) for f, sd in enumerate((0.4, 8.0, 2.0))]
            climate.append([row[0], max(0.0, row[1]), min(100.0, max(0.0, row[2]))])
        if not all(abs(v) <= 1e100 for row in climate for v in row):
            raise ConfigError(f"climate_noise {cfg.climate_noise} draws a climate value beyond 1e100")
        cases = []
        for t in range(cfg.months):
            z_rain = (climate[t - 1][1] - d[3]) / (d[4] / math.sqrt(2.0)) if t >= 1 else 0.0
            z_temp = (climate[t - 2][0] - d[0]) / (d[1] / math.sqrt(2.0)) if t >= 2 else 0.0
            try:
                rate = cfg.baseline * population[t] * math.exp(cfg.rain_weight * z_rain + cfg.temp_weight * z_temp)
            except OverflowError:
                rate = math.inf
            if not rate <= MAX_COUNT:
                raise ConfigError(f"case rate {rate} of {name} in month {t} is beyond 2**53; "
                                  "lower baseline, rain_weight or temp_weight")
            count = rate
            if cfg.case_noise > 0:
                count = rate + cfg.case_noise * (int(r_cases.poisson(rate)) - rate)
                if count > MAX_COUNT:
                    raise ConfigError(f"case_noise {cfg.case_noise} draws a count beyond 2**53")
            cases.append(round(max(0.0, count)))
        masked = [[v if r_mask.uniform(0.0, 1.0) >= cfg.missing_rate else math.nan for v in row] for row in climate]
        series[name] = (climate, masked, population, cases)
    names = sorted(cfg.provinces)
    return (names, *(np.array([series[name][k] for name in names]) for k in range(4)))


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

    @pytest.mark.parametrize("provinces", [("B", "A", "B"), ("A", "")], ids=["duplicate", "empty"])
    def test_provinces_must_be_distinct_non_empty_names(self, provinces):
        with pytest.raises(ConfigError, match=re.escape(f"provinces must be distinct non-empty names, got {provinces}")):
            SynthConfig(provinces=provinces)

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
    @pytest.mark.parametrize(
        "where, setting",
        [pytest.param(where, setting, id=where if setting == "pop_growth" else f"{setting}-{where}")
         for setting in ("pop_growth", "months") for where in ("flag", "config")],
    )
    def test_pop_growth_error_names_its_source(self, tmp_path, capsys, command, where, setting):
        # The bound spans pop_growth, months and start_month, so it is checked
        # after every setting is read; its error names where pop_growth was
        # set, or else where the series length was.
        value = {"pop_growth": "12", "months": "14000"}[setting]
        if command == "synth":
            key, flag = setting, f"--{setting.replace('_', '-')}"
            outputs = ["--out-truth", tmp_path / "t.csv", "--out-masked", tmp_path / "m.csv"]
        else:
            key, flag, outputs = f"synth.{setting}", f"--synth.{setting}", ["--out_dir", tmp_path / "out"]
        # A flag overrides the config file's harmless value.
        harmless = {"pop_growth": "0.5", "months": "30"}[setting]
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"seed = 1\n{key} = {value if where == 'config' else harmless}\n")
        argv = [command, "--config", cfg_path, *outputs, *([flag, value] if where == "flag" else [])]
        assert cli.main([str(a) for a in argv]) == 1
        source = f"command line: {flag}" if where == "flag" else f"{cfg_path} line 2"
        growth, months = ("12.0", 120) if setting == "pop_growth" else ("0.02", 14000)
        assert capsys.readouterr().err.splitlines() == [
            f"error:config: {source}: pop_growth {growth} takes a population past 2**53 within {months} months"
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

    @pytest.mark.parametrize(
        "settings",
        [
            dict(seed=1, months=36, start_month=5),
            dict(seed=2, months=30, provinces=("Zed", "Alpha", "Mid"), missing_rate=0.4),
            dict(seed=3, months=24, case_noise=0.0, climate_noise=0.0),
            dict(seed=4, months=300, start_month=12, provinces=("Ngozi", "Gitega")),
            dict(seed=5, months=40, case_noise=3.5, climate_noise=2.0, rain_weight=-2.0, temp_weight=1.5,
                 pop_growth=-0.3),
            # Amplified by case_noise, an exp one ulp off changes counts here.
            dict(seed=2, months=30, case_noise=1e12),
            # Each refused at the same point, with the same message.
            dict(seed=1, months=30, rain_weight=1e3),
            dict(seed=1, months=30, baseline=1e300),
            dict(seed=2, months=30, baseline=1e9, rain_weight=5.0),
            dict(seed=1, months=30, case_noise=1e300),
            dict(seed=1, months=30, climate_noise=1e308, provinces=("Zed", "Alpha")),
        ],
    )
    def test_matches_the_scalar_reference(self, settings):
        cfg = SynthConfig(**settings)
        try:
            names, *expected = scalar_reference(cfg)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                generate(cfg)
            assert str(info.value) == str(exc)
            return
        truth, masked = generate(cfg)
        assert truth.provinces == masked.provinces == names
        got = [truth.climate, masked.climate, truth.population, truth.cases]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

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
        # The province's ten draws, one at a time from the first spawned
        # stream: level, amplitude, phase of each climate field, then base.
        r_params = np.random.default_rng(cfg.seed).spawn(4)[0]
        draws = [r_params.uniform(low, high) for low, high in zip(*_RANGES)]
        (temp_mean, temp_amp, _), (rain_mean, rain_amp, _) = draws[0:3], draws[3:6]
        for t, row in enumerate(climate):
            for field in range(3):
                level, amp, phase = draws[3 * field:3 * field + 3]
                assert row[field] == level + amp * math.sin(2.0 * math.pi * (t + phase) / 12.0)
        for t in range(2, len(cases)):
            z_rain = (climate[t - 1][1] - rain_mean) / (rain_amp / math.sqrt(2.0))
            z_temp = (climate[t - 2][0] - temp_mean) / (temp_amp / math.sqrt(2.0))
            rate = cfg.baseline * population[t] * math.exp(cfg.rain_weight * z_rain + cfg.temp_weight * z_temp)
            assert cases[t] == round(rate)

    def test_first_listed_province_does_not_depend_on_the_others(self):
        # Every stream draws province by province in `provinces` order, and
        # the rows are sorted by name only afterwards.
        kw = dict(seed=9, months=30, missing_rate=0.3)
        many = generate(SynthConfig(provinces=("Zed", "Alpha", "Mid"), **kw))
        solo = generate(SynthConfig(provinces=("Solo",), **kw))
        assert many[0].provinces == ["Alpha", "Mid", "Zed"]
        for a, b in zip(many, solo):
            z = a.row("Zed")
            assert np.array_equal(a.climate[z], b.climate[0], equal_nan=True)
            assert np.array_equal(a.population[z], b.population[0])
            assert np.array_equal(a.cases[z], b.cases[0])
            assert not np.array_equal(a.climate[a.row("Alpha")], b.climate[0], equal_nan=True)

    def test_distinct_seeds_differ(self):
        a, _ = generate(SynthConfig(seed=7, months=24, provinces=("Alpha",)))
        b, _ = generate(SynthConfig(seed=8, months=24, provinces=("Alpha",)))
        assert not same_dataset(a, b)
