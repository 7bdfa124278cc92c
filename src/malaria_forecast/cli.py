"""Batch command-line front end.

Subcommands cover each pipeline stage (synth, impute, aggregate, train,
forecast, evaluate) plus ``pipeline``, which chains them end to end.

:data:`SETTINGS` is the one table of settings. Its ``synth.*``, ``impute.*``
and ``train.*`` rows are the fields of :class:`SynthConfig` (less ``seed``
and ``provinces``), :class:`ForestConfig` and :class:`TrainConfig` (less
``seed``), defaults included; the rows that are not dataclass fields are
declared in the table itself. The table gives the pipeline's
``--section.field`` flags and config keys, the lines of ``run_config.txt``,
the stage commands' ``--field-name`` flags and the ``synth --config`` keys.
Config files are read by :func:`data_model.read_kv`. Every rule is declared
once, on its dataclass field (:func:`core_math.ruled`) or on its table row,
and is checked where the value is read: :func:`parse_setting` parses and
checks each flag and file value, its error naming the flag or the file line,
so a bad value ends in ``error:config`` before any file is written.

Every command takes the global seed and derives its own stage seed from it,
so a full pipeline run and the equivalent sequence of individual commands
produce byte-identical artifacts. ``run_impute``, ``run_train`` and
``run_forecast`` read their settings and stage seeds from the run's
:class:`Config`, whichever command calls them. The ``run_*`` stage
functions hand on datasets, models and forecast reports: a stage command
reads its inputs from files, while ``pipeline`` hands each result to the
next stage in memory and still writes every artifact. Independent units
(the province imputations, and each model's training and forecast) run on
a process pool, which changes no output byte. Each artifact is written by
its own writer (``write_csv``, ``save_model``, ``emit_curves``, ...),
which goes through :func:`data_model.atomic_write`. Errors, a bad command
line included, exit 1 with a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import functools
import gc
import itertools
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import data_model, evaluation, imputation, lstm, parallel, synthgen, windowing
from .core_math import AT_LEAST_1, OPEN_UNIT, derive_seed
from .data_model import Dataset
from .errors import (
    CompletenessError,
    ConfigError,
    DataError,
    DivergenceError,
    ShapeError,
    WorkerError,
)

OUT_DIR_ENV = "MALARIA_FORECAST_OUT"

# At exit every artifact is closed, so the final collection only costs time.
atexit.register(gc.freeze)

_ERROR_CATEGORIES = [
    (CompletenessError, "completeness"),
    (DivergenceError, "divergence"),
    (ConfigError, "config"),
    (DataError, "data"),
    (ShapeError, "shape"),
    (WorkerError, "worker"),
    (MemoryError, "memory"),
    (OSError, "io"),
    (ValueError, "argument"),
]


def log(message: str) -> None:
    """One line on stderr, in one ``write``, so that the lines of concurrent
    workers do not interleave on an unbuffered stream."""
    sys.stderr.write(message + "\n")


def _parse_bool(raw: str) -> bool:
    lowered = str(raw).strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _optional_int(raw: str) -> int | None:
    """An ``int | None`` setting: 0 means None."""
    return int(raw) or None


@dataclasses.dataclass(frozen=True)
class Setting:
    """One row of :data:`SETTINGS`. ``key`` is ``section.field``, or a bare
    name for the run-wide settings. ``rule`` (a check and its wording) is
    the dataclass field's own rule, or declared on the row for the settings
    that are not fields; :func:`parse_setting` applies it."""

    key: str
    parse: Callable[[str], object]
    default: object
    rule: tuple[Callable[[object], bool], str] | None = None

    @property
    def name(self) -> str:
        return self.key.rpartition(".")[2]


_PARSERS = {"int": int, "float": float, "int | None": _optional_int}


def _fields(section: str, cls, *skip: str) -> list[Setting]:
    return [
        Setting(f"{section}.{f.name}", _PARSERS[f.type], f.default, f.metadata.get("rule"))
        for f in dataclasses.fields(cls)
        if f.name not in skip
    ]


# Every setting of a run, in run_config.txt order.
SETTINGS = {
    s.key: s
    for s in [
        Setting("seed", int, 42),
        Setting("out_dir", str, ""),
        Setting("input_csv", str, ""),
        Setting("map_csv", str, ""),
        *_fields("synth", synthgen.SynthConfig, "seed", "provinces"),
        *_fields("impute", imputation.ForestConfig),
        Setting("window.lookback", int, 12, AT_LEAST_1),
        Setting("window.train_fraction", float, 0.8, OPEN_UNIT),
        *_fields("train", lstm.TrainConfig, "seed"),
        Setting("forecast.recursive", _parse_bool, False),
    ]
}


def parse_setting(key: str, raw: str, where, name: str):
    """Setting ``key`` parsed from the text ``raw`` that ``where`` (a config
    file or the command line) gave for ``name``, and checked by its rule."""
    s = SETTINGS[key]
    try:
        value = s.parse(raw)
    except ValueError:
        raise ConfigError(f"{where}: bad value for {name}: {raw!r}") from None
    if s.rule and not s.rule[0](value):
        raise ConfigError(f"{where}: {name} {s.rule[1]}, got {value}")
    return value


def read_config(path, prefix: str = ""):
    """Yield ``(key, value, source)`` for each line of a ``key = value`` file
    whose keys are setting keys without ``prefix``; ``seed`` is always bare.
    ``source`` and every error name the line."""
    for line_no, name, raw in data_model.read_kv(path, ConfigError):
        key = name if name == "seed" else prefix + name
        if key not in SETTINGS:
            raise ConfigError(f"{path} line {line_no}: unknown config key {name!r}")
        where = f"{path} line {line_no}"
        yield key, parse_setting(key, raw, where, name), where


class Config:
    """The value of every setting (its default where ``values`` has none)
    and the config dataclasses built from them. ``sources`` names the flag or
    config file line that set a given setting, for a rule that spans settings."""

    def __init__(self, values: dict, sources: dict):
        self.values = {key: values.get(key, s.default) for key, s in SETTINGS.items()}
        try:
            self.synth = synthgen.SynthConfig(
                seed=derive_seed(self["seed"], "synth"), **self._section("synth", synthgen.SynthConfig)
            )
        except ConfigError as exc:  # the pop_growth bound, the one rule not checked by parse_setting
            setters = [sources[k] for k in ("synth.pop_growth", "synth.months", "synth.start_month") if k in sources]
            raise (ConfigError(f"{setters[0]}: {exc}") if setters else exc) from None
        self.forest = imputation.ForestConfig(**self._section("impute", imputation.ForestConfig))
        self.train = lstm.TrainConfig(**self._section("train", lstm.TrainConfig))

    def __getitem__(self, key):
        return self.values[key]

    def _section(self, section: str, cls) -> dict:
        keys = {f.name: f"{section}.{f.name}" for f in dataclasses.fields(cls)}
        return {name: self.values[key] for name, key in keys.items() if key in SETTINGS}

    def to_text(self) -> str:
        return "".join(f"{key} = {0 if v is None else v}\n" for key, v in self.values.items())


def run_synth(cfg: synthgen.SynthConfig, datasets, truth_path, masked_path) -> None:
    """Write the truth and masked ``datasets`` that ``cfg`` generated."""
    log(f"synth: seed={cfg.seed} months={cfg.months} missing_rate={cfg.missing_rate}")
    truth, masked = datasets
    data_model.write_csv(truth, truth_path)
    data_model.write_csv(masked, masked_path)


def run_impute(dataset: Dataset, cfg: Config, out_path, log_path) -> Dataset:
    seed, forest = cfg["seed"], cfg.forest
    stage_seed = derive_seed(seed, "impute")
    log(f"impute: seed={seed} stage_seed={stage_seed} n_trees={forest.n_trees} max_iter={forest.max_iter}")
    completed, results = imputation.impute_dataset(dataset, forest, np.random.default_rng(stage_seed))
    data_model.write_csv(completed, out_path)
    if log_path:
        data_model.write_table(
            log_path,
            ["province", "iteration", "delta"],
            (
                [province, i, repr(delta)]
                for province in sorted(results)
                for i, delta in enumerate(results[province].delta_history, start=1)
            ),
        )
    return completed


def run_aggregate(
    dataset: Dataset, out_path, level, redistricting=data_model.BURUNDI_REDISTRICTING
) -> Dataset:
    """Regroup into the ``new`` provinces, or collapse to the ``country``."""
    log(f"aggregate: level={level}")
    if level == "new":
        result = data_model.aggregate_provinces(dataset, redistricting)
    else:
        result = data_model.to_country_level(dataset)
    data_model.write_csv(result, out_path)
    return result


def run_train(
    dataset: Dataset, region, variant, cfg: Config, model_path, loss_path
) -> lstm.TrainedModel:
    lookback, train_fraction = cfg["window.lookback"], cfg["window.train_fraction"]
    dataset.row(region)  # an input without the region is refused before its split is judged
    windowing.split_index(dataset.cases.shape[1], lookback, train_fraction)
    windows = windowing.make_windows(dataset, region, windowing.WindowSpec(lookback, variant))
    train_part, _ = windowing.split_train_test(windows, train_fraction)
    train_cfg = dataclasses.replace(cfg.train, seed=derive_seed(cfg["seed"], f"train:{region}:{variant}"))
    log(
        f"train: region={region} variant={variant} lookback={lookback} "
        f"fraction={train_fraction} seed={train_cfg.seed} hidden={train_cfg.hidden} "
        f"epochs={train_cfg.epochs}"
    )
    model = lstm.train(train_part, train_cfg)
    lstm.save_model(model, model_path)
    if loss_path:
        data_model.write_table(
            loss_path,
            ["epoch", "loss"],
            ([epoch, repr(loss)] for epoch, loss in enumerate(model.loss_history)),
        )
    return model


FORECAST_HEADER = ["province", "variant", "year", "month", "observed", "predicted"]


def run_forecast(model: lstm.TrainedModel, dataset: Dataset, cfg: Config, out_path):
    """Forecast the test horizon of the model's region, write it and return
    its :class:`evaluation.ForecastReport`."""
    recursive, region, variant = cfg["forecast.recursive"], model.region, model.spec.variant
    log(f"forecast: region={region} variant={variant} recursive={recursive}")
    report = evaluation.make_report(region, variant, *lstm.forecast_test_horizon(model, dataset, recursive))
    data_model.write_table(
        out_path,
        FORECAST_HEADER,
        (
            [region, variant, month.year, month.month, repr(float(obs)), repr(float(pred))]
            for month, obs, pred in zip(report.months, report.observed, report.predicted)
        ),
    )
    return report


def _read_forecasts(paths) -> list[evaluation.ForecastReport]:
    """The reports of the forecast files at ``paths``, their rows grouped by
    (region, variant) across files and sorted by month. A month that comes
    twice for one region and variant raises DataError naming its second row."""
    groups: dict[tuple[str, str], dict] = {}  # each month's row, by (region, variant)
    for path in paths:
        for line_no, row in data_model.read_table(path, FORECAST_HEADER):
            region, variant, year, month, observed, predicted = row
            if region not in evaluation.REGION_ORDER or variant not in windowing.VARIANTS:
                raise DataError(f"{path} line {line_no}: unknown region or variant {[region, variant]!r}")
            rows, key = groups.setdefault((region, variant), {}), data_model.MonthKey(year, month)
            if key in rows:
                raise DataError(f"{path} line {line_no}: duplicate forecast month {key} for {region} {variant}")
            rows[key] = key, observed, predicted
    return [
        evaluation.make_report(region, variant, *zip(*sorted(rows.values())))
        for (region, variant), rows in sorted(groups.items())
    ]


def run_evaluate(reports: list[evaluation.ForecastReport], out_dir) -> None:
    """Write the report, tables and curves of ``reports`` to ``out_dir``."""
    log(f"evaluate: {len(reports)} forecasts -> {out_dir}")
    comparison = evaluation.build_comparison(reports)
    out = Path(out_dir)
    (out / "curves").mkdir(parents=True, exist_ok=True)
    data_model.atomic_write(
        out / "report.txt",
        evaluation.render_comparison_text(comparison) + "\n" + evaluation.render_totals_text(reports),
    )
    evaluation.write_comparison_csv(comparison, out / "comparison.csv")
    evaluation.write_totals_csv(reports, out / "totals.csv")
    for report in reports:
        stem = f"{report.region}_{report.model_variant}"
        evaluation.emit_curves(report, out / "curves" / f"{stem}.csv", out / "curves" / f"{stem}.svg")


def run_model(cfg: Config, out: Path, dataset: Dataset, region: str, variant: str):
    """Train one (region, variant) model of the pipeline and forecast its
    test horizon with it; returns its report. One job of the pipeline's pool."""
    stem = f"{region}_{variant}"
    model = run_train(
        dataset, region, variant, cfg, out / "models" / f"{stem}.model", out / "losses" / f"{stem}.csv"
    )
    return run_forecast(model, dataset, cfg, out / "forecasts" / f"{stem}.csv")


def run_pipeline(cfg: Config) -> None:
    if not cfg["out_dir"]:
        raise ConfigError(f"out_dir is required (flag, config file, or ${OUT_DIR_ENV})")
    # The input files are read before anything is written.
    redistricting = (
        data_model.read_map_csv(cfg["map_csv"]) if cfg["map_csv"] else data_model.BURUNDI_REDISTRICTING
    )
    # The synthetic pair is generated in memory, and checked like an input.
    synthetic = None if cfg["input_csv"] else synthgen.generate(cfg.synth)
    masked = data_model.ingest_csv(cfg["input_csv"]) if cfg["input_csv"] else synthetic[1]
    imputation.require_observed(masked)
    regions = sorted(set(redistricting.values()))
    if regions != sorted(data_model.BURUNDI_REDISTRICTING_GROUPS):
        raise DataError(
            f"{cfg['map_csv']}: regroups into {regions}, not the report's regions "
            f"{list(data_model.BURUNDI_REDISTRICTING_GROUPS)}"
        )
    data_model.check_regrouping(masked, redistricting)
    # Every model splits the same number of months; judged before any write.
    windowing.split_index(masked.cases.shape[1], cfg["window.lookback"], cfg["window.train_fraction"])

    out = Path(cfg["out_dir"])
    for sub in ("models", "losses", "forecasts"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    data_model.atomic_write(out / "run_config.txt", cfg.to_text())
    log(f"pipeline: seed={cfg['seed']} out={out} workers={parallel.usable_cpus()}")

    if synthetic:
        run_synth(cfg.synth, synthetic, out / "truth.csv", out / "masked.csv")
    completed = run_impute(masked, cfg, out / "completed.csv", out / "impute_log.csv")
    aggregated = run_aggregate(completed, out / "aggregated.csv", "new", redistricting)
    country = run_aggregate(aggregated, out / "country.csv", "country")

    jobs = [
        (country if region == data_model.COUNTRY_NAME else aggregated, region, variant)
        for region, variant in itertools.product(evaluation.REGION_ORDER, windowing.VARIANTS)
    ]
    run_evaluate(parallel.pmap(functools.partial(run_model, cfg, out), *zip(*jobs)), out)


def _flag(key: str, stage: bool) -> str:
    """A stage command's ``--field-name`` flag, or the pipeline's ``--key``."""
    return "--" + (SETTINGS[key].name.replace("_", "-") if stage else key)


def _add_settings(parser, *sections: str) -> None:
    """``--field-name`` flags for the settings of ``sections`` (a bare key
    is its own section), or ``--key`` flags for all of them when no section
    is named. A flag's value stays text, parsed later by
    :func:`parse_setting`; an absent flag is None and the defaults stay in
    SETTINGS."""
    for key, s in SETTINGS.items():
        if sections and key.partition(".")[0] not in sections:
            continue
        flag = _flag(key, bool(sections))
        default = 0 if s.default is None else s.default
        if s.parse is _parse_bool and sections:
            parser.add_argument(flag, dest=key, action="store_const", const="true", help=f"default {default}")
            continue
        note = "; 0 = None" if s.parse is _optional_int else ""
        metavar = "BOOL" if s.parse is _parse_bool else s.name.upper()
        parser.add_argument(flag, dest=key, metavar=metavar, help=f"default {default}{note}")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, so that it ends in one
    ``error:config:`` line like any other bad setting; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(f"command line: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="malaria-forecast",
        description="Forecast monthly malaria cases from province-level climate and case series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic truth/masked dataset pair")
    p.add_argument("--config", help="key = value file: seed and the synth settings without 'synth.'")
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-masked", required=True)
    _add_settings(p, "seed", "synth")

    p = sub.add_parser("impute", help="fill missing climate values (iterative random forest)")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--log", dest="log_path", help="per-iteration change statistic CSV")
    _add_settings(p, "seed", "impute")

    p = sub.add_parser("aggregate", help="regroup provinces (18 -> 5) or collapse to country")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--level", choices=["new", "country"], required=True)
    p.add_argument("--map", dest="map_path", help="old_province,new_province CSV (default: built-in)")

    p = sub.add_parser("train", help="train one LSTM forecaster for one region")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--variant", choices=windowing.VARIANTS, required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-loss", help="epoch,loss CSV")
    _add_settings(p, "seed", "window", "train")

    p = sub.add_parser("forecast", help="one-step forecasts over a model's test horizon")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    _add_settings(p, "forecast")

    p = sub.add_parser("evaluate", help="comparison table, totals, and curve files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("forecasts", nargs="+", help="forecast CSVs from the forecast command")

    p = sub.add_parser("pipeline", help="synth -> impute -> aggregate -> train -> evaluate")
    p.add_argument("--config", help="key = value pipeline config file")
    _add_settings(p)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        given = []  # (key, value, source); a later entry overrides an earlier one
        if args.command == "pipeline" and os.environ.get(OUT_DIR_ENV):
            given.append(("out_dir", os.environ[OUT_DIR_ENV], f"${OUT_DIR_ENV}"))
        if getattr(args, "config", None):
            given += read_config(args.config, "synth." if args.command == "synth" else "")
        for key, raw in vars(args).items():
            if key in SETTINGS and raw is not None:
                flag = _flag(key, args.command != "pipeline")
                given.append((key, parse_setting(key, raw, "command line", flag), f"command line: {flag}"))
        cfg = Config({key: value for key, value, _ in given}, {key: source for key, _, source in given})
        if args.command == "synth":
            run_synth(cfg.synth, synthgen.generate(cfg.synth), args.out_truth, args.out_masked)
        elif args.command == "impute":
            run_impute(data_model.ingest_csv(args.in_path), cfg, args.out_path, args.log_path)
        elif args.command == "aggregate":
            dataset = data_model.ingest_csv(args.in_path)
            redistricting = (
                data_model.read_map_csv(args.map_path) if args.map_path else data_model.BURUNDI_REDISTRICTING
            )
            run_aggregate(dataset, args.out_path, args.level, redistricting)
        elif args.command == "train":
            dataset = data_model.ingest_csv(args.in_path)
            run_train(dataset, args.region, args.variant, cfg, args.out_model, args.out_loss)
        elif args.command == "forecast":
            model = lstm.load_model(args.model)
            dataset = data_model.ingest_csv(args.in_path)
            run_forecast(model, dataset, cfg, args.out_path)
        elif args.command == "evaluate":
            run_evaluate(_read_forecasts(args.forecasts), args.out_dir)
        elif args.command == "pipeline":
            run_pipeline(cfg)
    except Exception as exc:  # single-line machine-parsable failure
        for klass, category in _ERROR_CATEGORIES:
            if isinstance(exc, klass):
                log(f"error:{category}: {exc}")
                return 1
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
