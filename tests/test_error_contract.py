"""Generated error-contract tests for the inputs of the stage commands.

Each test drives ``cli.main`` in-process on a mutated copy of one input
kind: a ``synth --config`` file, an ``aggregate --map`` file, one of the
twelve forecast files that ``evaluate`` reads, a dataset CSV read by
``aggregate --level country``, ``impute`` and ``train``, a model file read
by ``forecast``, and the command line of ``train`` and ``impute``. A run
either exits 0, or exits 1 with exactly one ``error:<category>: ...`` line
on stderr (no warning besides it) and no output file written; a bad dataset
or model file is an ``error:data:`` line, and a mutated command line always
fails with an ``error:config:`` line. No example runs a pipeline or the
process pool: the dataset that ``impute`` reads has a missing cell in one
province only, so ``pmap`` runs a plain loop.
"""

import contextlib
import hashlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malaria_forecast import cli, data_model, lstm
from malaria_forecast.evaluation import REGION_ORDER
from malaria_forecast.windowing import VARIANTS, WindowSpec, make_windows, split_train_test

MUTATIONS = ["truncate", "flip", "non-finite", "header-only", "duplicate", "width"]
# Non-finite cells, and finite ones whose squares or sums overflow.
NON_FINITE = ["nan", "inf", "-inf", "NaN", "1e999", "-1e999", "1e300", "-1.7e308"]

SYNTH_CONFIG = (
    "seed = 3\nmonths = 24\nstart_year = 2010\nstart_month = 5\nmissing_rate = 0.1\n"
    "climate_noise = 1.0\ncase_noise = 0.5\nbaseline = 0.004\nrain_weight = 0.35\n"
)
MAP_CSV = "old_province,new_province\n" + "".join(
    f"{old},{new}\n" for old, new in sorted(data_model.BURUNDI_REDISTRICTING.items())
)
FORECASTS = {
    f"{region}_{variant}.csv": ",".join(cli.FORECAST_HEADER) + "\n" + "".join(
        f"{region},{variant},2019,{month},{10 * month}.0,{11 * month}.123456789\n" for month in (1, 2, 3)
    )
    for region in REGION_ORDER
    for variant in VARIANTS
}


def dataset_csv(temp_mean=None) -> str:
    """The 18 former provinces over 24 months from 2010-01; ``temp_mean``
    maps a (province, month index) pair to the text of its temp_mean cell,
    in place of an ordinary temperature."""
    temp_mean = temp_mean or {}
    rows = (
        [province, 2010 + t // 12, t % 12 + 1, temp_mean.get((province, t), 20 + i % 7 + t % 4 / 4),
         100 + 7 * t % 53 + 0.5, 60 + t % 9, 5000 + 100 * i, (3 * i + 5 * t) % 40]
        for i, province in enumerate(data_model.OLD_PROVINCES)
        for t in range(24)
    )
    return "".join(",".join(map(str, row)) + "\n" for row in [data_model.CSV_HEADER, *rows])


def gitega_csv(value) -> bytes:
    """:func:`dataset_csv` with Gitega's temp_mean in month t set to ``value(t)``."""
    return dataset_csv({("Gitega", t): value(t) for t in range(24)}).encode()


def rows_csv(rows) -> bytes:
    """A dataset file of the CSV header and ``rows``."""
    return "\n".join([",".join(data_model.CSV_HEADER), *rows, ""]).encode()


DATASET_CSV = dataset_csv()
# One missing cell, in one province.
MASKED_CSV = dataset_csv({("Gitega", 6): ""})


def country_model() -> tuple[bytes, str]:
    """The country-level CSV of :data:`DATASET_CSV`, and the text of a small
    multivariate model file trained on it."""
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "truth.csv").write_text(DATASET_CSV)
        country = data_model.to_country_level(data_model.ingest_csv(folder / "truth.csv"))
        windows = make_windows(country, data_model.COUNTRY_NAME, WindowSpec(3, "multivariate"))
        model = lstm.train(split_train_test(windows, 0.8)[0], lstm.TrainConfig(hidden=3, epochs=2, seed=1))
        data_model.write_csv(country, folder / "country.csv")
        lstm.save_model(model, folder / "country.model")
        return (folder / "country.csv").read_bytes(), (folder / "country.model").read_text()


COUNTRY_CSV, MODEL = country_model()


def with_values(model: str, **values) -> bytes:
    """The model file ``model`` with the given keys' values replaced and its
    digest recomputed, so that it passes the checksum."""
    body = "".join(
        f"{key} = {values[key]}\n" if (key := line.partition(" = ")[0]) in values else line
        for line in model.splitlines(keepends=True)[:-1]
    )
    return f"{body}sha256 = {hashlib.sha256(body.encode()).hexdigest()}\n".encode()


@st.composite
def mutated(draw, text: str, csv: bool) -> bytes:
    """``text`` after one to three mutations. A CSV's first line is its
    header; a config file's lines are all ``key = value``."""
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        lines = data.split(b"\n")
        k = draw(st.integers(min(int(csv), len(lines) - 1), len(lines) - 1))
        action = draw(st.sampled_from(MUTATIONS))
        if action == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
            continue
        if action == "flip":
            if data:
                at = draw(st.integers(0, len(data) - 1))
                data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
            continue
        if action == "header-only":
            lines = lines[:1] + [b""]
        elif action == "duplicate":
            lines.insert(k, lines[k])
        elif csv:
            cells = lines[k].split(b",")
            at = draw(st.integers(0, len(cells) - 1))
            if action == "non-finite":
                cells[at] = draw(st.sampled_from(NON_FINITE)).encode()
            elif draw(st.booleans()) or len(cells) < 2:
                cells.insert(at, cells[at])
            else:
                del cells[at]
            lines[k] = b",".join(cells)
        else:
            key = lines[k].partition(b"=")[0]
            if action == "non-finite":
                lines[k] = key + b"= " + draw(st.sampled_from(NON_FINITE)).encode()
            else:
                lines[k] = draw(st.sampled_from([lines[k] + b" 1", key + b"=", key]))
        data = b"\n".join(lines)
    return data


def check_contract(argv, folder: Path, inputs, category="[a-z]+") -> int:
    """Run ``argv``; on failure, assert one error line of ``category`` (a
    pattern) and that ``folder`` holds only ``inputs``. Returns the exit
    code."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        return code
    assert code == 1
    lines = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and re.fullmatch(f"error:{category}: .+", lines[0]), err.getvalue()
    assert err.getvalue().splitlines()[-1] == lines[0]
    assert sorted(p.name for p in folder.iterdir()) == sorted(inputs)
    return code


@pytest.fixture(scope="module")
def truth_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("truth")
    assert cli.main(["synth", "--seed", "7", "--months", "24", "--missing-rate", "0.0",
                     "--out-truth", str(tmp / "truth.csv"), "--out-masked", str(tmp / "m.csv")]) == 0
    return tmp / "truth.csv"


@settings(max_examples=200, deadline=None)
@given(mutated(SYNTH_CONFIG, csv=False))
def test_mutated_synth_config_fails_with_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "synth.cfg").write_bytes(data)
        argv = ["synth", "--config", folder / "synth.cfg",
                "--out-truth", folder / "truth.csv", "--out-masked", folder / "masked.csv"]
        check_contract(argv, folder, ["synth.cfg"])


@settings(max_examples=200, deadline=None)
@given(data=mutated(MAP_CSV, csv=True))
def test_mutated_map_fails_with_one_error_line(truth_csv, data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "map.csv").write_bytes(data)
        argv = ["aggregate", "--in", truth_csv, "--out", folder / "new.csv", "--level", "new",
                "--map", folder / "map.csv"]
        check_contract(argv, folder, ["map.csv"])


@settings(max_examples=200, deadline=None)
@example(("Gitega_univariate.csv", FORECASTS["Gitega_univariate.csv"].replace("22.123456789", "1e300").encode()))
@given(st.sampled_from(sorted(FORECASTS)).flatmap(lambda name: st.tuples(st.just(name), mutated(FORECASTS[name], csv=True))))
def test_mutated_forecast_file_fails_with_one_error_line(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for other, text in FORECASTS.items():
            (folder / other).write_bytes(data if other == name else text.encode("utf-8"))
        check_contract(["evaluate", "--out-dir", folder / "out", *sorted(folder.iterdir())], folder, FORECASTS)


@settings(max_examples=200, deadline=None)
# Two finite temperatures whose country mean would overflow.
@example(dataset_csv({("Bubanza", 0): "1.7e308", ("Bujumbura Rural", 0): "1.7e308"}).encode())
@given(mutated(DATASET_CSV, csv=True))
def test_mutated_dataset_fails_with_one_data_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "truth.csv").write_bytes(data)
        argv = ["aggregate", "--in", folder / "truth.csv", "--out", folder / "country.csv", "--level", "country"]
        check_contract(argv, folder, ["truth.csv"], category="data")


@settings(max_examples=200, deadline=None)
# Finite weights whose outputs overflow (the model has 3 hidden units), a
# multivariate model relabelled univariate, finite scaler bounds whose span
# overflows, and hex floats beyond the 64-bit range.
@example(with_values(MODEL, head=" ".join([float.hex(1e308)] * 4)))
@example(with_values(MODEL, variant="univariate"))
@example(with_values(MODEL, input_mins=" ".join([float.hex(-1e308)] * 5), input_maxs=" ".join([float.hex(1e308)] * 5)))
@example(with_values(MODEL, head=" ".join(["0x1p99999"] * 4)))
@example(with_values(MODEL, input_maxs=" ".join(["0x1p+1024"] * 5)))
@given(mutated(MODEL, csv=False))
def test_mutated_model_fails_with_one_data_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "country.csv").write_bytes(COUNTRY_CSV)
        (folder / "country.model").write_bytes(data)
        argv = ["forecast", "--model", folder / "country.model", "--in", folder / "country.csv",
                "--out", folder / "forecast.csv"]
        check_contract(argv, folder, ["country.csv", "country.model"], category="data")


@settings(max_examples=200, deadline=None)
# Squares of imputed values that overflow in missForest's stopping rule.
@example(gitega_csv(lambda t: "" if t == 6 else "1e160"))
# Temperatures whose column mean overflows; every seventh month is missing.
@example(gitega_csv(lambda t: "" if t % 7 == 6 else "1.7e308"))
@given(mutated(MASKED_CSV, csv=True))
def test_mutated_dataset_fails_impute_with_one_data_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "masked.csv").write_bytes(data)
        argv = ["impute", "--in", folder / "masked.csv", "--out", folder / "completed.csv",
                "--log", folder / "log.csv", "--n-trees", "2", "--max-iter", "3"]
        check_contract(argv, folder, ["masked.csv"], category="data")


TRAIN_ARGV = ["train", "--region", "Gitega", "--variant", "multivariate", "--lookback", "3",
              "--epochs", "2", "--hidden", "3"]


@settings(max_examples=200, deadline=None)
# Temperatures whose training span overflows.
@example(gitega_csv(lambda t: ("1.7e308", "-1.7e308")[t % 2]))
# Files without Gitega, and a Gitega of four months: one window at lookback 3.
@example(rows_csv(["Bubanza,2010,1,20.0,100.5,60,5000,0", "Bubanza,2010,2,20.25,107.5,61,5000,5"]))
@example(rows_csv(["Bubanza,2010,1,20.0,100.5,60,5000,0", "Bubanza,2010,2,20.25,107.5,61,5000,5",
                   "Bubanza,2010,3,20.5,114.5,62,5000,10", "Bubanza,2010,4,20.75,121.5,63,5000,1"]))
@example(rows_csv([f"Gitega,2011,{month},20.0,100.5,60,5000,{month}" for month in range(9, 13)]))
@given(mutated(DATASET_CSV, csv=True))
def test_mutated_dataset_fails_train_with_one_data_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "truth.csv").write_bytes(data)
        argv = [*TRAIN_ARGV, "--in", folder / "truth.csv", "--out-model", folder / "g.model",
                "--out-loss", folder / "loss.csv"]
        check_contract(argv, folder, ["truth.csv"], category="data")


def flags(*sections):
    """The setting keys of ``sections`` with their stage-command flags."""
    return [(key, cli._flag(key, True)) for key in cli.SETTINGS if key.partition(".")[0] in sections]


FLAGS = {"train": flags("seed", "window", "train"), "impute": flags("seed", "impute")}
VALUES = ["0", "-1", "1", "0.5", "1.5", "-0.5", "inf", "nan", "1e400", "x", "1.5.", "", "1,5", "0x10", "--"]


def bad_values(key):
    """The :data:`VALUES` that do not parse as setting ``key``, and those that
    parse but break its rule."""
    setting, malformed, ruled = cli.SETTINGS[key], [], []
    for raw in VALUES:
        try:
            value = setting.parse(raw)
        except ValueError:
            malformed.append(raw)
            continue
        if setting.rule and not setting.rule[0](value):
            ruled.append(raw)
    return {"malformed": malformed, "ruled": ruled}


@st.composite
def mutated_argv(draw):
    """A command (``train`` or ``impute``) and one mutation of its flags: an
    unknown flag, a flag without its value, a value that does not parse, or
    one that breaks the setting's rule."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    action = draw(st.sampled_from(["unknown", "missing", "malformed", "ruled"]))
    if action == "unknown":
        return command, [draw(st.from_regex(r"--x[a-z-]{0,8}", fullmatch=True))]
    ruled = [(key, flag) for key, flag in FLAGS[command] if cli.SETTINGS[key].rule]
    key, flag = draw(st.sampled_from(ruled if action == "ruled" else FLAGS[command]))
    if action == "missing":
        return command, [flag]
    return command, [flag, draw(st.sampled_from(bad_values(key)[action]))]


@settings(max_examples=200, deadline=None)
@given(mutated_argv())
def test_mutated_flags_fail_with_one_config_error_line(case):
    # The mutation comes last, as a repeated flag's last value counts.
    command, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "in.csv").write_text(MASKED_CSV if command == "impute" else DATASET_CSV)
        if command == "impute":
            argv = ["impute", "--in", folder / "in.csv", "--out", folder / "out.csv", "--n-trees", "2"]
        else:
            argv = [*TRAIN_ARGV, "--in", folder / "in.csv", "--out-model", folder / "g.model"]
        assert check_contract([*argv, *extra], folder, ["in.csv"], category="config") == 1


def test_forecasts_beyond_the_bound_are_refused(tmp_path, capsys):
    # Finite forecasts that a forecast file could not hold: the head always
    # predicts about ten times the top of a target range that reaches 1e100.
    # Forecast writes no file that evaluate would refuse.
    head = " ".join(map(float.hex, [10.0, 0.0, 0.0, 0.0]))
    (tmp_path / "country.csv").write_bytes(COUNTRY_CSV)
    (tmp_path / "country.model").write_bytes(with_values(MODEL, head=head, target_maxs=float.hex(1e100)))
    argv = ["forecast", "--model", tmp_path / "country.model", "--in", tmp_path / "country.csv",
            "--out", tmp_path / "forecast.csv"]
    capsys.readouterr()
    assert cli.main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error:data: Burundi multivariate model: forecasts exceed 1e100"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["country.csv", "country.model"]


def test_half_empty_temperature_pair_is_refused(tmp_path, capsys):
    # The temp_min,temp_max layout, with temp_min empty and temp_max set on line 5.
    rows = [row.split(",") for row in DATASET_CSV.splitlines()[1:]]
    lines = [data_model.CSV_HEADER_MINMAX] + [
        [*row[:3], "" if k == 3 else float(row[3]) - 1, float(row[3]) + 1, *row[4:]] for k, row in enumerate(rows)
    ]
    path = tmp_path / "in.csv"
    path.write_text("".join(",".join(map(str, line)) + "\n" for line in lines))
    capsys.readouterr()
    argv = ["aggregate", "--in", path, "--out", tmp_path / "country.csv", "--level", "country"]
    assert cli.main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error:data: {path} line 5: temp_min and temp_max must be both present or both empty"
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]
