import ast
import csv
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_children, sinusoid_series
from malaria_forecast import cli, data_model, evaluation, lstm, parallel
from malaria_forecast.data_model import COUNTRY_NAME, ingest_csv
from malaria_forecast.errors import DataError
from malaria_forecast.evaluation import REGION_ORDER
from malaria_forecast.windowing import WindowSpec, make_windows, split_train_test

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


def cli_process(argv, **kwargs):
    """``python -m malaria_forecast.cli argv`` in a fresh interpreter, its
    standard error piped as text."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
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
        ],
        ids=["huge field", "not UTF-8"],
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

    def test_unknown_region_rejected(self, tmp_path, province_csv, capsys):
        assert run(["train", "--in", province_csv, "--region", "Atlantis",
                    "--variant", "univariate", "--out-model", tmp_path / "x.model"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:data:")

    def test_forecast_horizon_length(self, tmp_path, province_csv):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "univariate", "--epochs", 3, "--hidden", 4, "--out-model", model])
        forecast = tmp_path / "g_forecast.csv"
        assert run(["forecast", "--model", model, "--in", province_csv,
                    "--region", "Gitega", "--out", forecast]) == 0
        lines = forecast.read_text().splitlines()
        assert lines[0] == "province,variant,year,month,observed,predicted"
        # 40 months, lookback 12 -> 28 samples; floor(0.8*28)=22 train, 6 test
        assert len(lines) == 7
        assert all(line.startswith("Gitega,univariate,") for line in lines[1:])

    def test_forecast_with_truncated_model_is_one_error_line(self, tmp_path, province_csv, capsys):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "univariate", "--epochs", 1, "--hidden", 2, "--out-model", model])
        model.write_text("".join(model.read_text().splitlines(keepends=True)[:20]))
        capsys.readouterr()
        assert run(["forecast", "--model", model, "--in", province_csv,
                    "--region", "Gitega", "--out", tmp_path / "f.csv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error:data: {model}: line 21: unexpected end of file"]

    @pytest.mark.parametrize("corruption", ["altered weight", "format 1"])
    def test_forecast_with_altered_model_is_one_error_line(
        self, tmp_path, province_csv, capsys, corruption
    ):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "univariate", "--epochs", 1, "--hidden", 2, "--out-model", model])
        text = model.read_text()
        if corruption == "format 1":
            text = text.replace("malaria-forecast model 2", "malaria-forecast model 1", 1)
            expected = "line 1: model format 1 is no longer read"
        else:
            row = text.splitlines()[7]  # first row of tensor w
            text = text.replace(row, row.replace("p", "1p", 1), 1)  # one more hex digit
            expected = "line 28: checksum mismatch"
        model.write_text(text)
        capsys.readouterr()
        assert run(["forecast", "--model", model, "--in", province_csv,
                    "--region", "Gitega", "--out", tmp_path / "f.csv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error:data: {model}: {expected}")

    def test_evaluate_requires_all_regions(self, tmp_path, province_csv, capsys):
        model = tmp_path / "g.model"
        run(["train", "--seed", 1, "--in", province_csv, "--region", "Gitega",
             "--variant", "univariate", "--epochs", 3, "--hidden", 4, "--out-model", model])
        forecast = tmp_path / "g_forecast.csv"
        run(["forecast", "--model", model, "--in", province_csv, "--region", "Gitega",
             "--out", forecast])
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
                     "--in", source, "--region", region, "--out", forecast])
                forecasts.append(forecast)
        run(["evaluate", "--out-dir", manual] + forecasts)

        assert snapshot(pipe_out) == snapshot(manual)

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

    @pytest.mark.parametrize("source", ["synth", "input_csv"])
    def test_empty_split_is_refused_before_anything_is_written(self, tmp_path, capsys, source):
        # 30 months at lookback 12 give 18 windows; 1% of them trains none.
        argv = ["pipeline", "--seed", 1, "--out_dir", tmp_path / "out", "--window.train_fraction", "0.01",
                "--impute.n_trees", "3", "--train.epochs", "1"]
        if source == "synth":
            argv += ["--synth.months", "30"]
        else:
            masked = tmp_path / "masked.csv"
            assert run(["synth", "--seed", 1, "--months", 30, "--out-truth", tmp_path / "truth.csv",
                        "--out-masked", masked]) == 0
            argv += ["--input_csv", masked]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error:config: 30 months at window.lookback 12: split of 18 samples at "
                       "fraction 0.01 leaves an empty partition"]
        assert not (tmp_path / "out").exists()

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
            f"error:config: {cfg}: bad value for {key}: {value!r}"
        ]
        assert list(tmp_path.iterdir()) == [cfg]

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
        cfg.write_text("bogus.key = 1\n")
        assert run(["pipeline", "--config", cfg, "--out_dir", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:config:")

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
    def test_rejects_duplicate_keys(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("a = 1\na = 2\n")
        from malaria_forecast.errors import ConfigError

        with pytest.raises(ConfigError, match="duplicate"):
            cli.parse_kv_file(cfg)

    def test_rejects_missing_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        from malaria_forecast.errors import ConfigError

        with pytest.raises(ConfigError, match="key = value"):
            cli.parse_kv_file(cfg)

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\n\nkey = value\n")
        assert cli.parse_kv_file(cfg) == {"key": "value"}


class TestAtomicWrite:
    def test_failing_writer_keeps_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            data_model.atomic_write(target, "partial \ud800")  # a lone surrogate
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_temp_names_are_unique_and_modes_normal(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        seen = []
        rename = os.replace

        def replace(tmp, dst):
            seen.append(Path(tmp))
            if len(seen) == 1:  # a second writer of the same target, mid-write
                data_model.atomic_write(target, "2\n")
            rename(tmp, dst)

        monkeypatch.setattr(os, "replace", replace)
        data_model.atomic_write(target, "1\n")
        assert seen[0] != seen[1] and seen[0].parent == tmp_path
        assert target.read_text() == "1\n"
        assert list(tmp_path.iterdir()) == [target]
        reference = tmp_path / "ref.txt"
        reference.write_text("x")
        assert target.stat().st_mode == reference.stat().st_mode

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
        assert {name for _, name in found} == {"open", "mkstemp", "read_bytes"}


class TestProcess:
    """The CLI run as its own process, as a shell or a scheduler runs it."""

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
