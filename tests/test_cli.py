from pathlib import Path

import pytest

from malaria_forecast import cli
from malaria_forecast.data_model import COUNTRY_NAME, ingest_csv
from malaria_forecast.evaluation import REGION_ORDER

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


def pipeline_files(out: Path):
    return sorted(
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p.name != "run_config.txt"
    )


def snapshot(out: Path):
    return {rel: (out / rel).read_bytes() for rel in pipeline_files(out)}


class TestSynthCommand:
    def test_writes_parseable_pair(self, tmp_path):
        truth, masked = tmp_path / "truth.csv", tmp_path / "masked.csv"
        assert run(["synth", "--seed", 3, "--months", 30, "--missing-rate", 0.2,
                    "--out-truth", truth, "--out-masked", masked]) == 0
        t = ingest_csv(truth)
        m = ingest_csv(masked)
        assert len(t.months()) == 30
        assert not t.has_missing_climate()
        assert m.has_missing_climate()

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
        assert not ingest_csv(out).has_missing_climate()
        lines = log.read_text().splitlines()
        assert lines[0] == "province,iteration,delta"
        assert len(lines) > 1

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert run(["impute", "--in", tmp_path / "nope.csv", "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:io:")


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

        def fail(tmp):
            tmp.write_text("partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            cli.atomic_write(target, fail)
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_temp_names_are_unique_and_modes_normal(self, tmp_path):
        target = tmp_path / "out.txt"
        seen = []

        def write(tmp):
            seen.append(tmp)
            if len(seen) == 1:  # a second writer of the same target, mid-write
                cli.atomic_write(target, write)
            tmp.write_text(f"{len(seen)}\n")

        cli.atomic_write(target, write)
        assert seen[0] != seen[1] and seen[0].parent == tmp_path
        assert target.read_text() == "2\n"
        assert list(tmp_path.iterdir()) == [target]
        reference = tmp_path / "ref.txt"
        reference.write_text("x")
        assert target.stat().st_mode == reference.stat().st_mode
