import ast
import csv
import dataclasses
import hashlib
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_no_children, sinusoid_series
from conftest import with_cell as dataset_with_cell
from malaria_forecast import cli, data_model, evaluation, lstm, parallel
from malaria_forecast.data_model import COUNTRY_NAME, ingest_csv
from malaria_forecast.errors import ConfigError, DataError
from malaria_forecast.evaluation import REGION_ORDER
from malaria_forecast.imputation import ForestConfig
from malaria_forecast.lstm import TrainConfig
from malaria_forecast.synthgen import SynthConfig
from malaria_forecast.windowing import VARIANTS, WindowSpec, make_windows, split_train_test

SMALL_PIPELINE = [
    "--synth.months", "40",
    "--synth.missing_rate", "0.08",
    "--impute.n_trees", "6",
    "--impute.max_iter", "4",
    "--train.epochs", "8",
    "--train.hidden", "6",
]


def run(argv):
    return cli.main([str(a) for a in argv])


# Settings that no rule constrains: every value that parses is accepted.
UNRULED = {"seed", "out_dir", "input_csv", "map_csv", "forecast.recursive"}
# The stage command that takes a section's settings as --field-name flags,
# with its required arguments.
TRAIN_ARGS = ["train", "--in", "in.csv", "--region", "Gitega", "--variant", "univariate", "--out-model", "m.model"]
STAGE_ARGS = {
    "synth": ["synth", "--out-truth", "t.csv", "--out-masked", "m.csv"],
    "impute": ["impute", "--in", "in.csv", "--out", "out.csv"],
    "window": TRAIN_ARGS,
    "train": TRAIN_ARGS,
}


# Values that break each ruled setting's rule, at or just past each end of
# its range, written as the setting prints them. The first value of a key
# gives the ids ``<name>-<source>``, each other ``<name>=<value>-<source>``.
BREAKERS = {
    "synth.months": ["21", "0"],
    "synth.start_year": ["4611686018427387904", "-4611686018427387905", "10000000000000000000"],
    "synth.start_month": ["0", "13"],
    "synth.missing_rate": ["1.0", "-1.0", "nan"],
    "synth.climate_noise": ["-1.0", "inf", "nan"],
    "synth.case_noise": ["-1.0", "inf", "nan"],
    "synth.baseline": ["0.0", "inf", "nan"],
    "synth.rain_weight": ["inf", "nan"],
    "synth.temp_weight": ["inf", "nan"],
    "synth.pop_growth": ["inf", "nan"],
    "impute.n_trees": ["0"],
    "impute.mtry": ["-1"],  # 0 reads as None
    "impute.min_samples_leaf": ["0"],
    "impute.max_depth": ["-1"],  # 0 reads as None
    "impute.max_iter": ["0"],
    "window.lookback": ["0"],
    "window.train_fraction": ["1.5", "0.0", "1.0", "nan"],
    "train.hidden": ["0"],
    "train.epochs": ["-1"],
    "train.learning_rate": ["0.0", "inf", "nan"],
    "train.beta1": ["0.0", "1.0", "nan"],
    "train.beta2": ["0.0", "1.0", "nan"],
    "train.eps": ["0.0", "inf", "nan"],
    "train.batch_size": ["-1"],  # 0 reads as None
    "train.clip_norm": ["0.0", "inf", "nan"],
}


def rule_cases():
    """``(key, value, source)`` for every setting that has a rule, or should
    have one: a pipeline flag and config line, the stage flag where a stage
    command takes the setting, and a ``synth --config`` line."""
    cases = []
    for key, s in cli.SETTINGS.items():
        if key in UNRULED:
            continue
        section = key.partition(".")[0]
        sources = ["file", "flag"] + ["stage_flag"] * (section in STAGE_ARGS) + ["stage_file"] * (section == "synth")
        for i, value in enumerate(BREAKERS.get(key, [None])):
            name = s.name if i == 0 else f"{s.name}={value}"
            cases += [pytest.param(key, value, source, id=f"{name}-{source}") for source in sources]
    return cases


def cli_process(argv, **kwargs):
    """``python -m malaria_forecast.cli argv`` in a fresh interpreter, its
    standard error piped as text. The package's src directory comes first on
    its path, then the caller's ``PYTHONPATH``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen(
        [sys.executable, "-m", "malaria_forecast.cli", *map(str, argv)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, **kwargs,
    )


def session_pids(sid):
    """Live processes of session ``sid``, read from /proc."""
    pids = []
    for name in os.listdir("/proc"):
        try:
            if name.isdigit() and os.getsid(int(name)) == sid:
                pids.append(int(name))
        except ProcessLookupError:
            pass
    return pids


def pipeline_files(out: Path):
    return sorted(
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p.name != "run_config.txt"
    )


def snapshot(out: Path):
    return {rel: (out / rel).read_bytes() for rel in pipeline_files(out)}


def blank_column(tmp_path, province, column):
    """A masked synth CSV whose ``column`` is empty in every month of ``province``."""
    masked = tmp_path / "masked.csv"
    assert run(["synth", "--seed", 1, "--months", 30, "--out-truth", tmp_path / "truth.csv",
                "--out-masked", masked]) == 0
    rows = [line.split(",") for line in masked.read_text().splitlines()]
    at = rows[0].index(column)
    for row in rows[1:]:
        if row[0] == province:
            row[at] = ""
    blank = tmp_path / "blank.csv"
    blank.write_text("".join(",".join(row) + "\n" for row in rows))
    return blank


class TestSynthCommand:
    def test_writes_parseable_pair(self, tmp_path):
        truth, masked = tmp_path / "truth.csv", tmp_path / "masked.csv"
        assert run(["synth", "--seed", 3, "--months", 30, "--missing-rate", 0.2,
                    "--out-truth", truth, "--out-masked", masked]) == 0
        t = ingest_csv(truth)
        m = ingest_csv(masked)
        assert len(t.months()) == 30
        assert not np.isnan(t.climate).any()
        assert np.isnan(m.climate).any()

    def test_deterministic(self, tmp_path):
        paths = [tmp_path / f"{i}.csv" for i in range(4)]
        run(["synth", "--seed", 9, "--months", 26, "--out-truth", paths[0], "--out-masked", paths[1]])
        run(["synth", "--seed", 9, "--months", 26, "--out-truth", paths[2], "--out-masked", paths[3]])
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[1].read_bytes() == paths[3].read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("months = 26\nmissing_rate = 0.5\nseed = 4\n")
        truth, masked = tmp_path / "t.csv", tmp_path / "m.csv"
        assert run(["synth", "--config", cfg, "--missing-rate", 0.0,
                    "--out-truth", truth, "--out-masked", masked]) == 0
        assert truth.read_bytes() == masked.read_bytes()


class TestImputeCommand:
    def test_zero_missing_passthrough(self, tmp_path):
        truth = tmp_path / "truth.csv"
        run(["synth", "--seed", 5, "--months", 26, "--missing-rate", 0.0,
             "--out-truth", truth, "--out-masked", tmp_path / "m.csv"])
        out = tmp_path / "completed.csv"
        assert run(["impute", "--seed", 5, "--in", truth, "--out", out, "--n-trees", 2]) == 0
        assert out.read_text() == truth.read_text()

    def test_fills_and_logs(self, tmp_path):
        masked = tmp_path / "masked.csv"
        run(["synth", "--seed", 6, "--months", 30, "--missing-rate", 0.2,
             "--out-truth", tmp_path / "t.csv", "--out-masked", masked])
        out, log = tmp_path / "completed.csv", tmp_path / "impute_log.csv"
        assert run(["impute", "--seed", 6, "--in", masked, "--out", out,
                    "--log", log, "--n-trees", 4, "--max-iter", 3]) == 0
        assert not np.isnan(ingest_csv(out).climate).any()
        lines = log.read_text().splitlines()
        assert lines[0] == "province,iteration,delta"
        assert len(lines) > 1

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert run(["impute", "--in", tmp_path / "nope.csv", "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:io:")

    @pytest.mark.parametrize("key", ["input_csv", "map_csv"])
    def test_missing_pipeline_input_is_io_error(self, tmp_path, capsys, key):
        # The reader judges a missing file, as in every stage command.
        out, missing = tmp_path / "out", tmp_path / "nope.csv"
        assert run(["pipeline", "--seed", 1, "--out_dir", out, f"--{key}", missing]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:io: [Errno 2] No such file or directory: '{missing}'"
        ]
        assert not out.exists()

    def test_column_with_no_observed_month_is_data_error(self, tmp_path, capsys):
        blank = blank_column(tmp_path, "Bubanza", "rainfall")
        out, log = tmp_path / "completed.csv", tmp_path / "impute_log.csv"
        capsys.readouterr()
        assert run(["impute", "--in", blank, "--out", out, "--log", log, "--n-trees", 2]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error:data: Bubanza: rainfall has no observed month; cannot impute"]
        assert not out.exists() and not log.exists()


class TestAggregateCommand:
    def test_new_then_country(self, tmp_path):
        truth = tmp_path / "truth.csv"
        run(["synth", "--seed", 7, "--months", 26, "--missing-rate", 0.0,
             "--out-truth", truth, "--out-masked", tmp_path / "m.csv"])
        new_csv, country_csv = tmp_path / "new.csv", tmp_path / "country.csv"
        assert run(["aggregate", "--in", truth, "--out", new_csv, "--level", "new"]) == 0
        assert run(["aggregate", "--in", new_csv, "--out", country_csv, "--level", "country"]) == 0
        new_ds = ingest_csv(new_csv)
        assert new_ds.provinces == sorted(r for r in REGION_ORDER if r != COUNTRY_NAME)
        country = ingest_csv(country_csv)
        assert country.provinces == [COUNTRY_NAME]

    def test_missing_climate_is_data_error(self, tmp_path, capsys):
        masked = tmp_path / "masked.csv"
        run(["synth", "--seed", 8, "--months", 26, "--missing-rate", 0.3,
             "--out-truth", tmp_path / "t.csv", "--out-masked", masked])
        assert run(["aggregate", "--in", masked, "--out", tmp_path / "o.csv", "--level", "new"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:data:")

    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"old_province,new_province\nGitega," + b"x" * 200_000 + b"\n", "line 2: field larger than field limit"),
            (b"old_province,new_province\nGitega,Gitega\nK\xe9,Gitega\n", "not UTF-8 after line 2"),
            (b"old_province,new_province\n\n", ": no data rows"),
        ],
        ids=["huge field", "not UTF-8", "header only"],
    )
    def test_faulty_map_file_is_one_data_error(self, tmp_path, capsys, content, expected):
        truth = tmp_path / "truth.csv"
        run(["synth", "--seed", 7, "--months", 26, "--missing-rate", 0.0,
             "--out-truth", truth, "--out-masked", tmp_path / "m.csv"])
        map_path = tmp_path / "map.csv"
        map_path.write_bytes(content)
        capsys.readouterr()
        assert run(["aggregate", "--in", truth, "--out", tmp_path / "new.csv", "--level", "new",
                    "--map", map_path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error:data: {map_path}") and expected in err[0]
        assert not (tmp_path / "new.csv").exists()


@pytest.fixture(scope="module")
def province_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    truth = tmp / "truth.csv"
    run(["synth", "--seed", 12, "--months", 40, "--missing-rate", 0.0,
         "--out-truth", truth, "--out-masked", tmp / "m.csv"])
    new_csv = tmp / "new.csv"
    run(["aggregate", "--in", truth, "--out", new_csv, "--level", "new"])
    return new_csv


class TestTrainForecastEvaluate:
    def test_train_writes_model_and_losses(self, tmp_path, province_csv):
        model, losses = tmp_path / "g.model", tmp_path / "g_loss.csv"
        assert run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
                    "--variant", "univariate", "--epochs", 5, "--hidden", 4,
                    "--out-model", model, "--out-loss", losses]) == 0
        from malaria_forecast.lstm import load_model

        loaded = load_model(model)
        assert loaded.spec.variant == "univariate"
        # 40 months, lookback 12 -> 28 samples; the first 22 train, so the
        # last training target is month 12 + 22.
        assert loaded.train_end == ingest_csv(province_csv).months()[12 + 22 - 1]
        lines = losses.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 6

    @pytest.mark.parametrize("start_year", [10000, -3])
    def test_forecast_reads_the_model_of_any_year(self, tmp_path, start_year):
        # train_end is written as 10002-10 or -001-10.
        truth, new_csv, model = tmp_path / "truth.csv", tmp_path / "new.csv", tmp_path / "g.model"
        assert run(["synth", "--start-year", start_year, "--months", 40, "--missing-rate", 0,
                    "--out-truth", truth, "--out-masked", tmp_path / "m.csv"]) == 0
        assert run(["aggregate", "--in", truth, "--out", new_csv, "--level", "new"]) == 0
        assert run(["train", "--in", new_csv, "--region", "Gitega", "--variant", "univariate",
                    "--epochs", 2, "--hidden", 2, "--out-model", model]) == 0
        assert run(["forecast", "--model", model, "--in", new_csv, "--out", tmp_path / "f.csv"]) == 0

    @pytest.mark.parametrize(
        "hidden, line",
        [
            (100000, "error:memory: Unable to allocate 74.5 GiB"),
            (
                3000000000,
                "error:argument: array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum possible size.",
            ),
            (10000000000, "error:argument: Maximum allowed dimension exceeded"),
        ],
        ids=["memory", "bytes beyond the 64-bit range", "elements beyond the 64-bit range"],
    )
    def test_arrays_too_big_to_allocate_are_one_error_line(
        self, tmp_path, province_csv, monkeypatch, capsys, hidden, line
    ):
        # Numpy refuses the two larger sizes with a ValueError before it
        # allocates. A size it would try to allocate gets a MemoryError from
        # init_params in its place, so the test allocates nothing.
        def no_memory(*args):
            raise MemoryError("Unable to allocate 74.5 GiB")

        if line.startswith("error:memory:"):
            monkeypatch.setattr(lstm, "init_params", no_memory)
        capsys.readouterr()
        assert run(["train", "--in", province_csv, "--region", "Gitega", "--variant", "univariate",
                    "--hidden", hidden, "--out-model", tmp_path / "g.model"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == line
        assert list(tmp_path.iterdir()) == []

    def test_exception_of_no_error_category_is_reraised(self, tmp_path, province_csv, monkeypatch, capsys):
        # A program fault stays a traceback, not an error line.
        def fault(*args):
            raise KeyError("fault")

        monkeypatch.setattr(lstm, "train", fault)
        capsys.readouterr()
        with pytest.raises(KeyError, match="fault"):
            run(["train", "--in", province_csv, "--region", "Gitega", "--variant", "univariate",
                 "--out-model", tmp_path / "g.model"])
        assert not any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.integers(0, 6), st.integers(0, 2**53))
    def test_cases_after_the_training_boundary_never_reach_the_models(
        self, tmp_path_factory, province_csv, data, after, value
    ):
        # A case count ``after`` months past the last training target
        # changes neither of the region's model files; at the boundary
        # itself (after = 0) it changes both.
        dataset = ingest_csv(province_csv)
        region = data.draw(st.sampled_from(dataset.provinces))
        tmp = tmp_path_factory.mktemp("horizon")

        def models(csv):
            for variant in VARIANTS:
                assert run(["train", "--seed", 1, "--in", csv, "--region", region, "--variant", variant,
                            "--epochs", 2, "--hidden", 3, "--out-model", tmp / f"{variant}.model"]) == 0
            return [(tmp / f"{variant}.model").read_bytes() for variant in VARIANTS]

        before = models(province_csv)
        boundary = dataset.months().index(lstm.load_model(tmp / "univariate.model").train_end)
        assert boundary + 6 == len(dataset.months()) - 1  # 40 months: the last 6 are the horizon
        assume(value != dataset.cases[dataset.row(region), boundary + after])
        data_model.write_csv(dataset_with_cell(dataset, region, boundary + after, cases=value), tmp / "changed.csv")
        changed = models(tmp / "changed.csv")
        assert [new == old for new, old in zip(changed, before)] == [after > 0] * 2

    def test_train_refuses_a_climate_span_beyond_the_float_range(self, tmp_path, capsys):
        # Every temperature is finite, but the training span max - min is
        # not, so the scaler could only map them to NaN. The reader refuses
        # the first of them, as it is beyond MAX_MAGNITUDE.
        truth = tmp_path / "truth.csv"
        assert run(["synth", "--months", 40, "--missing-rate", 0, "--out-truth", truth,
                    "--out-masked", tmp_path / "masked.csv"]) == 0
        rows = [line.split(",") for line in truth.read_text().splitlines()]
        at = rows[0].index("temp_mean")
        for k, row in enumerate(row for row in rows if row[0] == "Gitega"):
            row[at] = ("1.7e308", "-1.7e308")[k % 2]
        first = 1 + next(k for k, row in enumerate(rows) if row[0] == "Gitega")
        big, model = tmp_path / "big.csv", tmp_path / "g.model"
        big.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--in", big, "--region", "Gitega", "--variant", "multivariate",
                        "--epochs", 2, "--hidden", 3, "--out-model", model]) == 1
        assert [str(w.message) for w in caught] == []
        assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")] == [
            f"error:data: {big} line {first}: temp_mean must be at most 1e100 in magnitude, got '1.7e308'"
        ]
        assert not model.exists()

    def test_a_value_too_far_outside_the_training_range_to_scale_is_one_error(self, tmp_path, capsys):
        # The training temperatures of Gitega span 1e-300, so a temperature
        # of 1e10 in the horizon would scale past 1e310 and overflow. Both
        # train (which scales the test partition) and forecast (with a model
        # trained where that month is ordinary) refuse it where it is scaled.
        truth = tmp_path / "truth.csv"
        assert run(["synth", "--months", 40, "--missing-rate", 0, "--out-truth", truth,
                    "--out-masked", tmp_path / "masked.csv"]) == 0
        rows = [line.split(",") for line in truth.read_text().splitlines()]
        at = rows[0].index("temp_mean")
        gitega = [row for row in rows if row[0] == "Gitega"]
        for k, row in enumerate(gitega):
            row[at] = ("0.0", "1e-300")[k % 2]
        tiny, far = tmp_path / "tiny.csv", tmp_path / "far.csv"
        tiny.write_text("".join(",".join(row) + "\n" for row in rows))
        gitega[-2][at] = "1e10"  # month T - 1, the last window's last input
        far.write_text("".join(",".join(row) + "\n" for row in rows))
        train = ["train", "--region", "Gitega", "--variant", "multivariate", "--epochs", 2, "--hidden", 3]
        assert run([*train, "--in", tiny, "--out-model", tmp_path / "tiny.model"]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([*train, "--in", far, "--out-model", tmp_path / "far.model"]) == 1
            assert run(["forecast", "--model", tmp_path / "tiny.model", "--in", far,
                        "--out", tmp_path / "forecast.csv"]) == 1
        assert [str(w.message) for w in caught] == []
        message = "error:data: Gitega temp_mean: 10000000000.0 is too far outside the training range to scale"
        assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")] == [message] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["far.csv", "masked.csv", "tiny.csv", "tiny.model", "truth.csv"]

    def test_unknown_region_rejected(self, tmp_path, province_csv, capsys):
        assert run(["train", "--in", province_csv, "--region", "Atlantis",
                    "--variant", "univariate", "--out-model", tmp_path / "x.model"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:data:")

    def test_unimputed_multivariate_series_names_region_month_and_field(self, tmp_path, capsys):
        masked, model = tmp_path / "masked.csv", tmp_path / "g.model"
        assert run(["synth", "--seed", 3, "--months", 40, "--out-truth", tmp_path / "truth.csv",
                    "--out-masked", masked]) == 0
        capsys.readouterr()
        assert run(["train", "--in", masked, "--region", "Gitega", "--variant", "multivariate",
                    "--out-model", model]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error:data: Gitega 2010-01: missing temp_mean value; impute before windowing"
        ]
        assert not model.exists()

    @pytest.mark.parametrize("first, last, recursive, message", [
        ((2010, 1), (2010, 10), False, "Gitega: series has 10 months but lookback 12 needs at least 13"),
        ((2010, 1), (2012, 1), False,
         "Gitega univariate model: series ends at 2012-01, not after the model's last training month 2012-10"),
        ((2012, 1), (2013, 4), True,
         "Gitega univariate model: recursive forecasts must start at 2012-11, the month after training, "
         "but the series' first horizon month is 2013-01"),
    ], ids=["shorter-than-a-window", "ends-in-training", "recursive-starts-late"])
    def test_forecast_series_errors_name_the_region(
        self, tmp_path, province_csv, capsys, first, last, recursive, message
    ):
        # The model trains on 2010-01..2013-04; its last training month is 2012-10.
        model, part, forecast = tmp_path / "g.model", tmp_path / "part.csv", tmp_path / "f.csv"
        assert run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
                    "--variant", "univariate", "--epochs", 1, "--hidden", 2, "--out-model", model]) == 0
        header, *rows = province_csv.read_text().splitlines()
        part.write_text("\n".join([header, *(
            row for row in rows
            if row.startswith("Gitega,") and first <= tuple(map(int, row.split(",")[1:3])) <= last
        )]) + "\n")
        capsys.readouterr()
        assert run(["forecast", "--model", model, "--in", part, "--out", forecast,
                    *(["--recursive"] if recursive else [])]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error:data: {message}"]
        assert not forecast.exists()

    def test_forecast_horizon_length(self, tmp_path, province_csv):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "univariate", "--epochs", 3, "--hidden", 4, "--out-model", model])
        forecast = tmp_path / "g_forecast.csv"
        assert run(["forecast", "--model", model, "--in", province_csv, "--out", forecast]) == 0
        lines = forecast.read_text().splitlines()
        assert lines[0] == "province,variant,year,month,observed,predicted"
        # 40 months, lookback 12 -> 28 samples; floor(0.8*28)=22 train, 6 test
        assert len(lines) == 7
        assert all(line.startswith("Gitega,univariate,") for line in lines[1:])

    def test_forecast_refuses_a_dataset_without_the_models_region(self, tmp_path, province_csv, capsys):
        model, country, forecast = tmp_path / "g.model", tmp_path / "country.csv", tmp_path / "f.csv"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "multivariate", "--epochs", 1, "--hidden", 2, "--out-model", model])
        run(["aggregate", "--in", province_csv, "--out", country, "--level", "country"])
        capsys.readouterr()
        assert run(["forecast", "--model", model, "--in", country, "--out", forecast]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error:data: region 'Gitega' not in dataset (has ['Burundi'])"]
        # The region comes from the model only.
        assert run(["forecast", "--model", model, "--in", country, "--region", "Burundi", "--out", forecast]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error:config: command line: unrecognized arguments: --region Burundi"
        ]
        assert not forecast.exists()

    def test_forecast_with_truncated_model_is_one_error_line(self, tmp_path, province_csv, capsys):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "univariate", "--epochs", 1, "--hidden", 2, "--out-model", model])
        model.write_text("".join(model.read_text().splitlines(keepends=True)[:10]))
        capsys.readouterr()
        assert run(["forecast", "--model", model, "--in", province_csv, "--out", tmp_path / "f.csv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error:data: {model} line 11: expected 'target_mins', got the end of the file"]

    @pytest.mark.parametrize("corruption", ["altered weight", "format 1"])
    def test_forecast_with_altered_model_is_one_error_line(
        self, tmp_path, province_csv, capsys, corruption
    ):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "univariate", "--epochs", 1, "--hidden", 2, "--out-model", model])
        text = model.read_text()
        if corruption == "format 1":
            text = text.replace("format = malaria-forecast model 4", "malaria-forecast model 1", 1)
            expected = "line 1: expected key = value, got 'malaria-forecast model 1'"
        else:
            row = text.splitlines()[6]  # line 7, tensor w
            text = text.replace(row, row.replace("p", "1p", 1), 1)  # one more hex digit
            expected = "line 13: checksum mismatch"  # the sha256 line
        model.write_text(text)
        capsys.readouterr()
        assert run(["forecast", "--model", model, "--in", province_csv, "--out", tmp_path / "f.csv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == f"error:data: {model} {expected}"

    def test_forecast_with_features_contradicting_the_variant_names_the_line(
        self, tmp_path, province_csv, capsys
    ):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "multivariate", "--epochs", 1, "--hidden", 2, "--out-model", model])
        body = model.read_text().rpartition("sha256 = ")[0].replace("variant = multivariate", "variant = univariate")
        model.write_text(f"{body}sha256 = {hashlib.sha256(body.encode()).hexdigest()}\n")
        capsys.readouterr()
        assert run(["forecast", "--model", model, "--in", province_csv, "--out", tmp_path / "f.csv"]) == 1
        # The variant sets the feature count, so w holds 4H·(1+F+H) = 64
        # values where a univariate model at H = 2 has 32.
        assert capsys.readouterr().err.splitlines() == [
            f"error:data: {model} line 7: expected 32 values, got 64"
        ]
        assert not (tmp_path / "f.csv").exists()

    def test_evaluate_requires_all_regions(self, tmp_path, province_csv, capsys):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "univariate", "--epochs", 3, "--hidden", 4, "--out-model", model])
        forecast = tmp_path / "g_forecast.csv"
        run(["forecast", "--model", model, "--in", province_csv, "--out", forecast])
        assert run(["evaluate", "--out-dir", tmp_path / "eval", forecast]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:completeness:")

    @pytest.mark.parametrize("region, variant", [("../../escaped", "univariate"), ("Gitega", "../x")])
    def test_evaluate_refuses_unknown_region_or_variant(self, tmp_path, capsys, region, variant):
        # Curve files are named after the region and variant cells, so
        # these would be written outside the out_dir.
        header = "province,variant,year,month,observed,predicted\n"
        paths = []
        (tmp_path / "forecasts").mkdir()
        for name in REGION_ORDER:
            rows = [f"{name},{v},2019,{m},10.0,11.0\n" for v in ("univariate", "multivariate") for m in (1, 2)]
            paths.append(tmp_path / "forecasts" / f"{name}.csv")
            paths[-1].write_text(header + "".join(rows))
        paths.append(tmp_path / "forecasts" / "bad.csv")
        paths[-1].write_text(header + f"{region},{variant},2019,1,10.0,11.0\n")
        out = tmp_path / "a" / "b" / "out"
        assert run(["evaluate", "--out-dir", out] + paths) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error:data: {paths[-1]} line 2: unknown region or variant {[region, variant]!r}"]
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert written == {p.relative_to(tmp_path).as_posix() for p in paths}

    def test_header_only_forecast_file_is_one_data_error(self, tmp_path, capsys):
        header = "province,variant,year,month,observed,predicted\n"
        paths = [tmp_path / f"{name}.csv" for name in REGION_ORDER] + [tmp_path / "empty.csv"]
        for name, path in zip(REGION_ORDER, paths):
            path.write_text(header + "".join(f"{name},{v},2019,1,10.0,11.0\n" for v in ("univariate", "multivariate")))
        paths[-1].write_text(header)
        assert run(["evaluate", "--out-dir", tmp_path / "out"] + paths) == 1
        assert capsys.readouterr().err.splitlines() == [f"error:data: {paths[-1]}: no data rows"]
        assert not (tmp_path / "out").exists()

    def test_forecast_file_with_huge_field_is_one_data_error(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("province,variant,year,month,observed,predicted\n"
                        "Gitega,univariate,2019,1,10.0,11.0\n"
                        f"Gitega,univariate,2019,2,{'1' * 200_000},11.0\n")
        assert run(["evaluate", "--out-dir", tmp_path / "out", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error:data: {path} line 3: field larger than field limit (131072)"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--region", "Gitega", "--variant", "univariate", "--hidden", "0"],
            ["train", "--region", "Gitega", "--variant", "univariate", "--lookback", "0"],
            ["impute", "--max-iter", "0"],
            ["impute", "--mtry", "-1"],
            ["train", "--region", "Gitega", "--variant", "univariate", "--epochs", "2.5"],
            ["train", "--region", "Gitega", "--variant", "univariate", "--batch-size", "none"],
        ],
        ids=["train hidden", "train lookback", "impute max-iter", "impute mtry", "train epochs float",
             "train batch-size text"],
    )
    def test_stage_setting_is_checked_before_reading(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = argv + ["--in", tmp_path / "absent.csv"]
        argv += ["--out-model", out] if argv[0] == "train" else ["--out", out]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def truth_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("truth")
    truth = tmp / "truth.csv"
    run(["synth", "--seed", 7, "--months", 26, "--missing-rate", 0.0,
         "--out-truth", truth, "--out-masked", tmp / "m.csv"])
    return truth


def table_text(table, truth):
    """A well-formed dataset (``truth``'s rows), map or forecast CSV, with
    ``\n`` line ends."""
    if table == "dataset":
        return truth.read_text().replace("\r\n", "\n")
    if table == "map":
        rows = sorted(data_model.BURUNDI_REDISTRICTING.items())
        return "old_province,new_province\n" + "".join(f"{old},{new}\n" for old, new in rows)
    rows = [f"{region},{variant},2019,{month},{10 * month}.0,{11 * month}.5\n"
            for region in REGION_ORDER for variant in ("univariate", "multivariate") for month in (1, 2, 3)]
    return ",".join(cli.FORECAST_HEADER) + "\n" + "".join(rows)


def table_command(tmp_path, table, path, truth):
    """The command line that reads ``path`` as ``table``, and what it writes."""
    out = tmp_path / "out"
    if table == "dataset":
        return ["aggregate", "--in", path, "--out", out, "--level", "country"], out
    if table == "map":
        return ["aggregate", "--in", truth, "--out", out, "--level", "new", "--map", path], out
    return ["evaluate", "--out-dir", out, path], out


def with_cell(text, line_no, column, cell):
    """``text`` with ``cell`` at ``column`` of line ``line_no`` (one past the
    last column adds a cell)."""
    lines = text.splitlines()
    row = lines[line_no - 1].split(",")
    row[column : column + 1] = [cell]
    lines[line_no - 1] = ",".join(row)
    return "\n".join(lines) + "\n"


class TestTables:
    """The dataset, map and forecast CSVs are read by one reader and one
    cell parser, so they fail and pass in the same ways."""

    @pytest.mark.parametrize(
        "table, column, cell, message",
        [
            ("dataset", 4, "wet", "malformed rainfall cell 'wet'"),
            ("dataset", 2, "13", "month must be in 1..12, got '13'"),
            ("map", 1, " ", "empty new_province cell"),
            ("map", 2, "Gitega", "expected 2 cells, got 3"),
            ("forecast", 4, "x", "malformed observed cell 'x'"),
        ],
    )
    def test_bad_cell_is_one_error_naming_file_and_line(
        self, tmp_path, truth_csv, capsys, table, column, cell, message
    ):
        path = tmp_path / f"{table}.csv"
        path.write_text(with_cell(table_text(table, truth_csv), 3, column, cell))
        argv, out = table_command(tmp_path, table, path, truth_csv)
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error:data: {path} line 3: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("table", ["dataset", "map", "forecast"])
    def test_blank_lines_after_the_data_are_skipped(self, tmp_path, truth_csv, table):
        text = table_text(table, truth_csv)
        outputs = []
        for name, body in (("reference", text), ("padded", text + "\r\n\n")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "table.csv").write_text(body)
            argv, out = table_command(tmp_path / name, table, tmp_path / name / "table.csv", truth_csv)
            assert run(argv) == 0
            outputs.append(snapshot(out) if out.is_dir() else out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (4, "inf", "observed must be finite, got 'inf'"),
            (4, "-inf", "observed must be finite, got '-inf'"),
            (5, "nan", "predicted must be finite, got 'nan'"),
            (4, "", "empty observed cell"),
            (5, " ", "empty predicted cell"),
            (3, "13", "month must be in 1..12, got '13'"),
        ],
    )
    def test_forecast_values_are_checked(self, tmp_path, capsys, column, cell, message):
        path = tmp_path / "forecast.csv"
        path.write_text(with_cell(table_text("forecast", None), 5, column, cell))
        capsys.readouterr()
        assert run(["evaluate", "--out-dir", tmp_path / "out", path]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error:data: {path} line 5: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1e300", "-1.7e308"])
    def test_forecast_values_too_large_to_score_are_one_error(self, tmp_path, capsys, value):
        path = tmp_path / "forecast.csv"
        path.write_text(with_cell(table_text("forecast", None), 5, 5, value))
        assert run(["evaluate", "--out-dir", tmp_path / "out", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error:data: {path} line 5: predicted must be at most 1e100 in magnitude, got '{value}'"]
        assert not (tmp_path / "out").exists()

    def test_forecast_header_may_space_its_cells(self, tmp_path):
        text = table_text("forecast", None)
        spaced = text.replace(",".join(cli.FORECAST_HEADER), ", ".join(cli.FORECAST_HEADER), 1)
        for name, body in (("plain", text), ("spaced", spaced)):
            (tmp_path / f"{name}.csv").write_text(body)
            assert run(["evaluate", "--out-dir", tmp_path / name, tmp_path / f"{name}.csv"]) == 0
        assert snapshot(tmp_path / "spaced") == snapshot(tmp_path / "plain")

    def test_duplicate_forecast_month_names_the_second_file_and_line(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(table_text("forecast", None))
        second.write_text(",".join(cli.FORECAST_HEADER) + "\nGitega,multivariate,2019,2,20.0,21.0\n")
        capsys.readouterr()
        assert run(["evaluate", "--out-dir", tmp_path / "out", first, second]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:data: {second} line 2: duplicate forecast month 2019-02 for Gitega multivariate"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "row, edited, multivariate_span",
        [
            # A multivariate model with the longer lookback starts a month later.
            ("Gitega,multivariate,2019,1,10.0,11.5\n", "", "2019-02..2019-03 (2 months)"),
            ("Gitega,multivariate,2019,2,20.0,", "Gitega,multivariate,2019,2,21.0,", "2019-01..2019-03 (3 months)"),
        ],
        ids=["months", "observed"],
    )
    def test_evaluate_refuses_variants_over_different_months_or_observations(
        self, tmp_path, capsys, row, edited, multivariate_span
    ):
        path = tmp_path / "forecast.csv"
        text = table_text("forecast", None)
        assert row in text
        path.write_text(text.replace(row, edited))
        capsys.readouterr()
        assert run(["evaluate", "--out-dir", tmp_path / "out", path]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [
            "error:data: Gitega: the univariate forecast covers 2019-01..2019-03 (3 months) and the"
            f" multivariate forecast {multivariate_span}; both must cover the same months with the"
            " same observed cases"
        ]
        assert not (tmp_path / "out").exists()

    def test_a_forecast_split_across_files_is_read_as_one(self, tmp_path):
        # The second file holds each forecast's month 2, the first its months
        # 3 and 1, in that order.
        header, *rows = table_text("forecast", None).splitlines(keepends=True)
        (tmp_path / "one.csv").write_text(header + "".join(rows))
        (tmp_path / "a.csv").write_text(header + "".join(r for r in rows[::-1] if ",2019,2," not in r))
        (tmp_path / "b.csv").write_text(header + "".join(r for r in rows if ",2019,2," in r))
        assert run(["evaluate", "--out-dir", tmp_path / "whole", tmp_path / "one.csv"]) == 0
        assert run(["evaluate", "--out-dir", tmp_path / "split", tmp_path / "a.csv", tmp_path / "b.csv"]) == 0
        assert snapshot(tmp_path / "split") == snapshot(tmp_path / "whole")

    def test_csv_is_parsed_only_in_read_table(self):
        owners = set()
        for path in Path(data_model.__file__).parent.glob("*.py"):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and sub.attr == "reader"
                            and getattr(sub.value, "id", "") == "csv"):
                        owners.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
        assert owners == {"data_model.read_table"}


class TestPipeline:
    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        argv = ["pipeline", "--seed", 21, "--out_dir", out] + SMALL_PIPELINE
        assert run(argv) == 0
        first = snapshot(out)
        assert run(argv) == 0
        second = snapshot(out)
        assert first == second
        assert len(first) > 40

    def test_pipeline_equals_manual_composition(self, tmp_path):
        pipe_out = tmp_path / "pipe"
        run(["pipeline", "--seed", 33, "--out_dir", pipe_out] + SMALL_PIPELINE)

        manual = tmp_path / "manual"
        manual.mkdir()
        for sub in ("models", "losses", "forecasts"):
            (manual / sub).mkdir()
        seed = 33
        run(["synth", "--seed", seed, "--months", 40, "--missing-rate", 0.08,
             "--out-truth", manual / "truth.csv", "--out-masked", manual / "masked.csv"])
        run(["impute", "--seed", seed, "--in", manual / "masked.csv",
             "--out", manual / "completed.csv", "--log", manual / "impute_log.csv",
             "--n-trees", 6, "--max-iter", 4])
        run(["aggregate", "--in", manual / "completed.csv", "--out", manual / "aggregated.csv",
             "--level", "new"])
        run(["aggregate", "--in", manual / "aggregated.csv", "--out", manual / "country.csv",
             "--level", "country"])
        forecasts = []
        for region in REGION_ORDER:
            source = manual / ("country.csv" if region == COUNTRY_NAME else "aggregated.csv")
            for variant in ("univariate", "multivariate"):
                stem = f"{region}_{variant}"
                run(["train", "--seed", seed, "--in", source, "--region", region,
                     "--variant", variant, "--epochs", 8, "--hidden", 6,
                     "--out-model", manual / "models" / f"{stem}.model",
                     "--out-loss", manual / "losses" / f"{stem}.csv"])
                forecast = manual / "forecasts" / f"{stem}.csv"
                run(["forecast", "--model", manual / "models" / f"{stem}.model",
                     "--in", source, "--out", forecast])
                forecasts.append(forecast)
        run(["evaluate", "--out-dir", manual] + forecasts)

        assert snapshot(pipe_out) == snapshot(manual)

    def test_killed_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        run_model = cli.run_model

        def killed(cfg, out, dataset, region, variant):
            if (region, variant) == ("Gitega", "multivariate"):
                os.kill(os.getpid(), signal.SIGKILL)
            return run_model(cfg, out, dataset, region, variant)

        # Workers are forked, so they run the patched job.
        monkeypatch.setattr(cli, "run_model", killed)
        capsys.readouterr()
        assert run(["pipeline", "--seed", 5, "--out_dir", tmp_path / "out"] + SMALL_PIPELINE) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert re.fullmatch(r"error:worker: the worker running item \d+ was killed by signal 9 before it answered", last)
        assert_no_children()

    def test_memory_error_in_a_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

        def no_memory(*args):
            raise MemoryError("Unable to allocate 74.5 GiB")

        # Workers are forked, so they run the patched function.
        monkeypatch.setattr(lstm, "init_params", no_memory)
        capsys.readouterr()
        assert run(["pipeline", "--seed", 5, "--out_dir", tmp_path / "out"] + SMALL_PIPELINE) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error:memory: Unable to allocate 74.5 GiB"
        assert_no_children()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch, workers):
        argv = ["pipeline", "--seed", 21] + SMALL_PIPELINE
        assert run(argv + ["--out_dir", tmp_path / "default"]) == 0
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        assert run(argv + ["--out_dir", tmp_path / "pinned"]) == 0
        assert snapshot(tmp_path / "default") == snapshot(tmp_path / "pinned")

    def test_no_worker_outlives_the_pipeline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        argv = ["pipeline", "--seed", 5] + SMALL_PIPELINE
        assert run(argv + ["--out_dir", tmp_path / "ok"]) == 0
        assert_no_children()

        train = cli.run_train

        def failing_train(dataset, region, *args):
            if region == "Gitega":
                raise DataError("no data for Gitega")
            return train(dataset, region, *args)

        # Workers are forked, so they run the patched stage.
        monkeypatch.setattr(cli, "run_train", failing_train)
        capsys.readouterr()
        assert run(argv + ["--out_dir", tmp_path / "failed"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error:data: no data for Gitega"
        assert_no_children()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("train.hidden", "0"),
            ("window.lookback", "0"),
            ("train.batch_size", "-3"),
            ("impute.n_trees", "0"),
            ("impute.max_iter", "0"),
        ],
    )
    def test_bad_setting_is_refused_before_anything_is_written(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        argv = ["pipeline", "--seed", 21, "--out_dir", out] + SMALL_PIPELINE + [f"--{key}", value]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")
        assert err[0].endswith(f"got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["synth", "input_csv", "train"])
    def test_empty_split_is_refused_before_anything_is_written(self, tmp_path, capsys, source):
        # 30 months at lookback 12 give 18 windows; 1% of them trains none.
        # The train stage refuses the split of its input with the same line.
        argv = ["pipeline", "--seed", 1, "--out_dir", tmp_path / "out", "--window.train_fraction", "0.01",
                "--impute.n_trees", "3", "--train.epochs", "1"]
        if source == "synth":
            argv += ["--synth.months", "30"]
        else:
            masked = tmp_path / "masked.csv"
            assert run(["synth", "--seed", 1, "--months", 30, "--out-truth", tmp_path / "truth.csv",
                        "--out-masked", masked]) == 0
            argv += ["--input_csv", masked]
        if source == "train":
            aggregated = tmp_path / "aggregated.csv"
            assert run(["aggregate", "--in", tmp_path / "truth.csv", "--out", aggregated, "--level", "new"]) == 0
            argv = ["train", "--in", aggregated, "--region", "Gitega", "--variant", "univariate",
                    "--out-model", tmp_path / "out", "--train-fraction", "0.01", "--epochs", "1"]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error:config: 30 months at window.lookback 12: split of 18 samples at "
                       "fraction 0.01 leaves an empty partition"]
        assert not (tmp_path / "out").exists()

    def test_series_with_one_window_is_a_data_error(self, tmp_path, capsys):
        # 30 months at lookback 29 give one window, which no fraction splits.
        truth, aggregated, model = tmp_path / "truth.csv", tmp_path / "aggregated.csv", tmp_path / "g.model"
        assert run(["synth", "--seed", 1, "--months", 30, "--out-truth", truth,
                    "--out-masked", tmp_path / "masked.csv"]) == 0
        assert run(["aggregate", "--in", truth, "--out", aggregated, "--level", "new"]) == 0
        capsys.readouterr()
        assert run(["train", "--in", aggregated, "--region", "Gitega", "--variant", "univariate",
                    "--out-model", model, "--lookback", "29", "--epochs", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:data: 30 months at window.lookback 29: 1 windows")
        assert not model.exists()

    @pytest.mark.parametrize("lookback", [29, 30, 31])
    def test_train_refuses_a_short_series_with_the_pipelines_line(self, tmp_path, capsys, lookback):
        truth, aggregated, model = tmp_path / "truth.csv", tmp_path / "aggregated.csv", tmp_path / "g.model"
        assert run(["synth", "--seed", 4, "--months", 30, "--out-truth", truth,
                    "--out-masked", tmp_path / "masked.csv"]) == 0
        assert run(["aggregate", "--in", truth, "--out", aggregated, "--level", "new"]) == 0
        capsys.readouterr()
        assert run(["train", "--in", aggregated, "--region", "Gitega", "--variant", "univariate",
                    "--out-model", model, "--lookback", lookback, "--epochs", "1"]) == 1
        train_err = capsys.readouterr().err.splitlines()
        assert run(["pipeline", "--seed", 4, "--synth.months", 30, "--window.lookback", lookback,
                    "--out_dir", tmp_path / "out"]) == 1
        assert train_err == capsys.readouterr().err.splitlines() == [
            f"error:data: 30 months at window.lookback {lookback}: {max(30 - lookback, 0)} windows; "
            f"a train/test split needs {lookback + 2} months"
        ]
        assert not model.exists() and not (tmp_path / "out").exists()

    def test_column_with_no_observed_month_is_refused_before_anything_is_written(
        self, tmp_path, capsys
    ):
        blank = blank_column(tmp_path, "Bubanza", "rel_humidity")
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(["pipeline", "--seed", 1, "--input_csv", blank, "--out_dir", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error:data: Bubanza: rel_humidity has no observed month; cannot impute"]
        assert not out.exists()
        # The synth masks every month of a column at this rate and length.
        synth = ["--synth.months", 30, "--synth.missing_rate", 0.9,
                 "--impute.n_trees", 2, "--train.epochs", 1]
        assert run(["pipeline", "--seed", 1, "--out_dir", out] + synth) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error:data: Kirundo: temp_mean has no observed month; cannot impute"]
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["other regions", "province left out"])
    def test_map_the_report_cannot_use_is_refused_before_anything_is_written(self, tmp_path, capsys, fault):
        rows = sorted(data_model.BURUNDI_REDISTRICTING.items())
        if fault == "other regions":
            rows = [(old, f"Region{k % 5}") for k, (old, _) in enumerate(rows)]
            expected = (f"regroups into {[f'Region{k}' for k in range(5)]}, not the report's regions "
                        f"{REGION_ORDER[:-1]}")
        else:
            expected = f"province {rows.pop(0)[0]!r} is not in the redistricting map"
        map_csv = tmp_path / "map.csv"
        map_csv.write_text("old_province,new_province\n" + "".join(f"{old},{new}\n" for old, new in rows))
        out = tmp_path / "out"
        assert run(["pipeline", "--seed", 21, "--out_dir", out, "--map_csv", map_csv] + SMALL_PIPELINE) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:data: ") and err[0].endswith(expected)
        if fault == "other regions":
            assert err[0].startswith(f"error:data: {map_csv}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "count, level, region, total",
        [(2**51 + 1, "new", "Bujumbura", 4 * (2**51 + 1)), (2**51 - 1, "country", COUNTRY_NAME, 18 * (2**51 - 1))],
        ids=["regional", "national"],
    )
    def test_count_sum_beyond_2_53_is_refused_before_anything_is_written(
        self, tmp_path, capsys, count, level, region, total
    ):
        # Every cell keeps the rule; Bujumbura's four members, or all eighteen
        # provinces, sum past it. The aggregate stage ends with the same line.
        truth, masked = tmp_path / "truth.csv", tmp_path / "masked.csv"
        assert run(["synth", "--seed", 1, "--months", 120, "--out-truth", truth, "--out-masked", masked]) == 0
        header, *rows = csv.reader(truth.read_text().splitlines())
        with truth.open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *(row[:-1] + [count] for row in rows)])
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(["pipeline", "--seed", 1, "--input_csv", truth, "--out_dir", out]) == 1
        expected = [f"error:data: {region} 2010-01: cases must be <= 2**53, got {total}, a sum of member provinces"]
        assert capsys.readouterr().err.splitlines() == expected
        assert not out.exists()
        assert run(["aggregate", "--in", truth, "--out", tmp_path / "agg.csv", "--level", level]) == 1
        assert capsys.readouterr().err.splitlines() == [f"aggregate: level={level}", *expected]
        assert not (tmp_path / "agg.csv").exists()

    @pytest.mark.parametrize("fault", ["population sum", "extra mapped province"])
    def test_regrouping_guard_refuses_before_anything_is_written(self, tmp_path, capsys, fault):
        truth, masked = tmp_path / "truth.csv", tmp_path / "masked.csv"
        assert run(["synth", "--seed", 1, "--months", 120, "--out-truth", truth, "--out-masked", masked]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        args = ["pipeline", "--seed", 1, "--input_csv", truth, "--out_dir", out]
        if fault == "population sum":
            # Bujumbura's four members sum past 2**53 in both counts; the
            # population sum is judged first.
            count = 2**51 + 1
            header, *rows = csv.reader(truth.read_text().splitlines())
            with truth.open("w", newline="") as fh:
                csv.writer(fh).writerows([header, *(row[:-2] + [count, count] for row in rows)])
            expected = (f"error:data: Bujumbura 2010-01: population must be <= 2**53, got {4 * count}, "
                        "a sum of member provinces")
        else:
            map_csv = tmp_path / "map.csv"
            rows = sorted(data_model.BURUNDI_REDISTRICTING.items()) + [("Atlantis", "Gitega")]
            map_csv.write_text("old_province,new_province\n" + "".join(f"{old},{new}\n" for old, new in rows))
            args += ["--map_csv", map_csv]
            expected = "error:data: dataset is missing mapped province 'Atlantis'"
        assert run(args) == 1
        assert capsys.readouterr().err.splitlines() == [expected]
        assert not out.exists()

    def test_rerun_from_its_own_run_config(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["pipeline", "--seed", 21, "--out_dir", first] + SMALL_PIPELINE) == 0
        assert run(["pipeline", "--config", first / "run_config.txt", "--out_dir", second]) == 0
        assert snapshot(first) == snapshot(second)
        lines = [(first / "run_config.txt").read_text().splitlines(),
                 (second / "run_config.txt").read_text().splitlines()]
        assert lines[1] == [f"out_dir = {second}" if line.startswith("out_dir =") else line
                            for line in lines[0]]

    def test_datasets_and_models_stay_in_memory(self, tmp_path, monkeypatch):
        from malaria_forecast import data_model, lstm

        calls = []
        for module, name in ((data_model, "ingest_csv"), (lstm, "load_model")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # count in this process
        argv = ["pipeline", "--seed", 21] + SMALL_PIPELINE
        assert run(argv + ["--out_dir", tmp_path / "synth"]) == 0
        assert calls == []
        masked = tmp_path / "synth" / "masked.csv"
        assert run(argv + ["--out_dir", tmp_path / "input", "--input_csv", masked]) == 0
        assert calls == ["ingest_csv"]
        files = snapshot(tmp_path / "synth")
        del files["truth.csv"], files["masked.csv"]
        assert snapshot(tmp_path / "input") == files

    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
        argv = ["pipeline", "--seed", 2, "--synth.months", "24",
                "--impute.n_trees", "2", "--impute.max_iter", "2",
                "--train.epochs", "2", "--train.hidden", "4"]
        assert run(argv) == 0
        assert (target / "report.txt").exists()

    def test_missing_out_dir_is_config_error(self, monkeypatch, capsys):
        monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
        assert run(["pipeline", "--seed", 2]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:config:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pipeline", "--out_dir", "o", "--impute.ntrees", "3"], "unrecognized arguments: --impute.ntrees 3"),
            (["pipeline", "--seed"], "argument --seed: expected one argument"),
            (["synth", "--out-truth", "t.csv"], "the following arguments are required: --out-masked"),
            (
                ["train", "--in", "p.csv", "--region", "Gitega", "--out-model", "m", "--variant", "bogus"],
                "argument --variant: invalid choice: 'bogus'",
            ),
        ],
        ids=["misspelt flag", "flag without value", "missing required flag", "bad choice"],
    )
    def test_bad_command_line_is_one_config_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUT_DIR_ENV, "env-out")
        assert run(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith(f"error:config: command line: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_help_still_prints_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["pipeline", "--help"])
        assert exit_info.value.code == 0
        assert "--impute.n_trees" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value",
        [("impute.n_trees", "2.5"), ("forecast.recursive", "maybe"), ("train.batch_size", "none")],
        ids=["float for int", "bad bool", "bad int or None"],
    )
    def test_unparsable_value_is_one_config_error(self, tmp_path, capsys, key, value):
        # A flag and a config file line go through the same parser.
        out = tmp_path / "out"
        assert run(["pipeline", "--out_dir", out, f"--{key}", value]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:config: command line: bad value for --{key}: {value!r}"
        ]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run(["pipeline", "--config", cfg, "--out_dir", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:config: {cfg} line 1: bad value for {key}: {value!r}"
        ]
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key, value, source", rule_cases())
    def test_value_breaking_a_rule_names_its_source(self, tmp_path, monkeypatch, capsys, key, value, source):
        s = cli.SETTINGS[key]
        assert s.rule, f"{key} has no rule"
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        flag = "--" + s.name.replace("_", "-")
        if source == "flag":
            argv, where = ["pipeline", "--out_dir", "out", f"--{key}", value], f"command line: --{key}"
        elif source == "file":
            cfg.write_text(f"{key} = {value}\n")
            argv, where = ["pipeline", "--out_dir", "out", "--config", cfg], f"{cfg} line 1: {key}"
        elif source == "stage_flag":
            argv, where = [*STAGE_ARGS[key.partition(".")[0]], flag, value], f"command line: {flag}"
        else:  # a synth --config line
            cfg.write_text(f"{s.name} = {value}\n")
            argv, where = [*STAGE_ARGS["synth"], "--config", cfg], f"{cfg} line 1: {s.name}"
        before = sorted(tmp_path.iterdir())
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error:config: {where} {s.rule[1]}, got {value}"]
        assert sorted(tmp_path.iterdir()) == before

    def test_every_ruled_setting_breaks_its_rule_in_a_test(self):
        assert {key for key, s in cli.SETTINGS.items() if s.rule} == set(BREAKERS) == {case.values[0] for case in rule_cases()}

    @pytest.mark.parametrize("section, cls", [("synth", SynthConfig), ("impute", ForestConfig), ("train", TrainConfig)])
    def test_a_field_row_has_its_fields_rule(self, section, cls):
        for f in dataclasses.fields(cls):
            if f"{section}.{f.name}" in cli.SETTINGS:
                assert cli.SETTINGS[f"{section}.{f.name}"].rule is f.metadata.get("rule")

    def test_config_file_not_utf8_is_one_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\n# \xd0\x28\n")  # a comment that is not UTF-8
        assert run(["pipeline", "--config", cfg, "--out_dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:config: {cfg}: not UTF-8 after line 1: invalid continuation byte"
        ]
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\n\nbogus.key = 1\n")
        assert run(["pipeline", "--config", cfg, "--out_dir", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:config: {cfg} line 3: unknown config key 'bogus.key'"
        ]

    def test_config_file_drives_run(self, tmp_path):
        out = tmp_path / "cfgout"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# small smoke pipeline",
                    "seed = 21",
                    f"out_dir = {out}",
                    "synth.months = 40",
                    "synth.missing_rate = 0.08",
                    "impute.n_trees = 6",
                    "impute.max_iter = 4",
                    "train.epochs = 8",
                    "train.hidden = 6",
                ]
            )
            + "\n"
        )
        assert run(["pipeline", "--config", cfg]) == 0
        flags_out = tmp_path / "flagsout"
        run(["pipeline", "--seed", 21, "--out_dir", flags_out] + SMALL_PIPELINE)
        assert snapshot(out) == snapshot(flags_out)


class TestKvParser:
    """``data_model.read_kv``, the reader of config and model files."""

    def test_rejects_duplicate_keys(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg))} line 2: bad or duplicate key 'a'$"):
            list(data_model.read_kv(cfg, ConfigError))

    def test_rejects_missing_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ConfigError, match="line 1: expected key = value"):
            list(data_model.read_kv(cfg, ConfigError))

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\n\n key = a = b \n")
        assert list(data_model.read_kv(cfg, ConfigError)) == [(3, "key", "a = b")]


class TestAtomicWrite:
    def test_failing_writer_keeps_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            data_model.atomic_write(target, "partial \ud800")  # a lone surrogate
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_temp_names_are_unique_and_modes_normal(self, tmp_path, monkeypatch, umask):
        target = tmp_path / "out.txt"
        seen = []
        rename = os.replace

        def replace(tmp, dst):
            seen.append(Path(tmp))
            if len(seen) == 1:  # a second writer of the same target, mid-write
                data_model.atomic_write(target, "2\n")
            rename(tmp, dst)

        def no_umask(mask):
            raise AssertionError("atomic_write must not set the process umask")

        before = os.umask(umask)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", replace)
                patch.setattr(os, "umask", no_umask)
                data_model.atomic_write(target, "1\n")
            reference = tmp_path / "ref.txt"
            reference.write_text("x")
        finally:
            os.umask(before)
        assert seen[0] != seen[1] and seen[0].parent == tmp_path
        assert target.read_text() == "1\n"
        assert sorted(tmp_path.iterdir()) == [target, reference]
        assert target.stat().st_mode == reference.stat().st_mode == 0o100666 & ~umask

    def test_temp_name_of_another_writer_is_left_alone(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        monkeypatch.setattr(os, "urandom", lambda n: bytes(range(n)))
        theirs = tmp_path / ".out.txt.0001020304050607.tmp"
        theirs.write_text("theirs\n")
        with pytest.raises(FileExistsError):
            data_model.atomic_write(target, "new\n")
        assert target.read_text() == "old\n" and theirs.read_text() == "theirs\n"
        assert sorted(tmp_path.iterdir()) == [theirs, target]

    def test_direct_writer_calls_are_atomic(self, tmp_path, monkeypatch):
        series = sinusoid_series(n=40)
        train_part, _ = split_train_test(make_windows(series, "Signal", WindowSpec(12, "univariate")), 0.8)
        model = lstm.train(train_part, lstm.TrainConfig(hidden=2, epochs=1, seed=1))
        report = evaluation.make_report("Gitega", "univariate", series.months()[:2], [1.0, 2.0], [1.0, 3.0])
        targets = [tmp_path / name for name in ("a.model", "b.csv", "b.svg", "c.csv")]
        for target in targets:
            target.write_text("old\n")

        def replace(tmp, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", replace)
        for write in (
            lambda: lstm.save_model(model, targets[0]),
            lambda: evaluation.emit_curves(report, targets[1], targets[2]),
            lambda: data_model.write_csv(series, targets[3]),
        ):
            with pytest.raises(OSError, match="rename refused"):
                write()
        assert all(target.read_text() == "old\n" for target in targets)
        assert sorted(tmp_path.iterdir()) == sorted(targets)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(), min_size=1, max_size=4),
        st.lists(
            st.lists(st.one_of(st.text(), st.integers(), st.floats().map(repr)), max_size=4),
            max_size=6,
        ),
    )
    def test_write_table_bytes_equal_a_csv_writer_on_a_file(self, tmp_path_factory, header, rows):
        header += ["a,b", 'say "hi"', "two\nlines\r\n"]
        rows = [row + ["x,y", '"', "\n"] for row in rows]
        folder = tmp_path_factory.mktemp("table")
        with open(folder / "expected.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        data_model.write_table(folder / "table.csv", header, rows)
        assert (folder / "table.csv").read_bytes() == (folder / "expected.csv").read_bytes()

    def test_src_opens_files_only_in_the_two_file_functions(self):
        # ``read_text`` reads every input and ``atomic_write`` writes every
        # artifact; no other code in the package touches a file itself.
        file_calls = {"open", "write_text", "write_bytes", "read_bytes", "mkstemp", "fdopen"}
        found = set()

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in file_calls:
                        found.add((owner, name))
                is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, f"{owner.partition('.')[0]}.{child.name}" if is_function else owner)

        for path in Path(data_model.__file__).parent.glob("*.py"):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert {owner for owner, _ in found} == {"data_model.atomic_write", "data_model.read_text"}
        assert {name for _, name in found} == {"open", "read_bytes"}


def test_src_defines_no_name_that_src_does_not_read():
    # ``gradient_check`` is kept for the acceptance tests and
    # ``persistence_baseline`` for the baseline report; every other
    # module-level function, class and assignment is loaded, imported or read
    # as an attribute somewhere in the package. Dunder names are read by
    # Python and packaging tools, not by the package.
    defined, read = set(), set()
    for path in Path(data_model.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                read.update(alias.name for alias in sub.names)
    unread = {name for name in defined - read if not (name.startswith("__") and name.endswith("__"))}
    assert unread == {"gradient_check", "persistence_baseline"}


class TestProcess:
    """The CLI run as its own process, as a shell or a scheduler runs it."""

    def test_each_log_line_is_one_write(self, tmp_path, monkeypatch):
        # Pool workers share stderr; a line written in two calls can be
        # split by another worker's line when the stream is unbuffered.
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

            def flush(self):
                pass

        recorder = Recorder()
        monkeypatch.setattr(sys, "stderr", recorder)
        cli.log("train: region=Gitega")
        assert run(["evaluate", "--out-dir", tmp_path / "out", tmp_path / "absent.csv"]) == 1
        assert recorder.writes[0] == "train: region=Gitega\n"
        assert len(recorder.writes) == 2 and recorder.writes[1].startswith("error:io: ")
        assert recorder.writes[1].count("\n") == 1 and recorder.writes[1].endswith("\n")

    def test_diverging_run_prints_only_its_error_line(self, tmp_path):
        argv = ["pipeline", "--seed", 1, "--out_dir", tmp_path / "out", "--train.learning_rate", "1e300",
                "--synth.months", 40, "--impute.n_trees", 2, "--train.epochs", 5]
        proc = cli_process(argv)
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 1
        *stages, last = err.splitlines()
        stage = re.compile(r"(pipeline|synth|impute|aggregate|train|forecast): [^:]*")
        assert all(stage.fullmatch(line) for line in stages), err
        assert last.startswith("error:divergence: non-finite training loss at epoch ")

    def test_piped_run_ends_with_its_last_stage_line(self, tmp_path):
        out = tmp_path / "out"
        proc = cli_process(["pipeline", "--seed", 3, "--out_dir", out] + SMALL_PIPELINE)
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert err.splitlines()[-1] == f"evaluate: 12 forecasts -> {out}"

        proc = cli_process(["pipeline", "--out_dir", out, "--impute.ntrees", 3])
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.splitlines() == [
            "error:config: command line: unrecognized arguments: --impute.ntrees 3"
        ]

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists a session's processes from /proc")
    def test_ctrl_c_mid_pool_leaves_nothing_behind(self, tmp_path):
        # About 3 s of imputation on a 2-CPU machine.
        argv = ["pipeline", "--seed", 1, "--out_dir", tmp_path / "out", "--synth.months", 120,
                "--impute.n_trees", 100, "--impute.max_iter", 10, "--train.epochs", 1]
        proc = cli_process(argv, start_new_session=True)
        try:
            lines = []
            while not lines or not lines[-1].startswith("impute:"):
                lines.append(proc.stderr.readline())
                assert lines[-1], "the pipeline ended before imputation"
            deadline = time.monotonic() + 10
            while len(session_pids(proc.pid)) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(session_pids(proc.pid)) > 1, "no worker was started"
            time.sleep(0.2)
            started = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert time.monotonic() - started < 10
        assert proc.returncode != 0
        assert session_pids(proc.pid) == []
        assert err.count("Traceback") <= 1
        assert err.rstrip().splitlines()[-1] == "KeyboardInterrupt"
