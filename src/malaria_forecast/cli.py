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
Flag and file values are parsed by :func:`parse_setting` and checked once,
when the :class:`Config` is built, so a bad one ends in ``error:config``
before any file is written.

Every command takes the global seed and derives its own stage seed from it,
so a full pipeline run and the equivalent sequence of individual commands
produce byte-identical artifacts. The ``run_*`` stage functions take and
return datasets and models: a stage command reads its inputs from files,
while ``pipeline`` hands each result to the next stage in memory and still
writes every artifact. Independent units (the province imputations, and each
model's training and forecast) run on a process pool, which changes no
output byte. Each artifact is written by its own writer (``write_csv``,
``save_model``, ``emit_curves``, ...), which goes through
:func:`data_model.atomic_write`. Errors, a bad command line included, exit 1
with a single machine-parsable line on stderr.
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

from . import data_model, evaluation, imputation, lstm, parallel, synthgen, windowing
from .core_math import Rng, derive_seed
from .data_model import Dataset
from .errors import (
    CompletenessError,
    ConfigError,
    DataError,
    DivergenceError,
    ShapeError,
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
    (OSError, "io"),
    (ValueError, "argument"),
]


def log(message: str) -> None:
    print(message, file=sys.stderr)


def parse_kv_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; blank lines and # comments ignored."""
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(data_model.read_text(path, ConfigError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key or key in mapping:
            raise ConfigError(f"{path} line {line_no}: bad or duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


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
    given for the rows that are not dataclass fields; the config dataclasses
    check their own fields."""

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
        Setting(f"{section}.{f.name}", _PARSERS[f.type], f.default)
        for f in dataclasses.fields(cls)
        if f.name not in skip
    ]


_POSITIVE = (lambda v: v >= 1, "must be >= 1")

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
        Setting("impute.max_iter", int, imputation.MAX_ITER, _POSITIVE),
        Setting("window.lookback", int, 12, _POSITIVE),
        Setting("window.train_fraction", float, 0.8, (lambda v: 0.0 < v < 1.0, "must be in (0, 1)")),
        *_fields("train", lstm.TrainConfig, "seed"),
        Setting("forecast.recursive", _parse_bool, False),
    ]
}


def parse_setting(key: str, raw: str, where, name: str):
    """Setting ``key`` parsed from the text ``raw`` that ``where`` (a config
    file or the command line) gave for ``name``."""
    try:
        return SETTINGS[key].parse(raw)
    except ValueError:
        raise ConfigError(f"{where}: bad value for {name}: {raw!r}") from None


def read_config(path, prefix: str = "") -> dict:
    """Setting values from a ``key = value`` file whose keys are setting
    keys without ``prefix``; ``seed`` is always bare."""
    values = {}
    for name, raw in parse_kv_file(path).items():
        key = name if name == "seed" else prefix + name
        if key not in SETTINGS:
            raise ConfigError(f"{path}: unknown config key {name!r}")
        values[key] = parse_setting(key, raw, path, name)
    return values


class Config:
    """The value of every setting (its default where ``values`` has none),
    checked, and the config dataclasses built from them."""

    def __init__(self, values: dict):
        self.values = {key: values.get(key, s.default) for key, s in SETTINGS.items()}
        for key, s in SETTINGS.items():
            if s.rule and not s.rule[0](self.values[key]):
                raise ConfigError(f"{key} {s.rule[1]}, got {self.values[key]}")
        self.synth = synthgen.SynthConfig(
            seed=derive_seed(self["seed"], "synth"), **self._section("synth", synthgen.SynthConfig)
        )
        self.forest = imputation.ForestConfig(**self._section("impute", imputation.ForestConfig))
        self.train = lstm.TrainConfig(**self._section("train", lstm.TrainConfig))

    def __getitem__(self, key):
        return self.values[key]

    def _section(self, section: str, cls) -> dict:
        keys = {f.name: f"{section}.{f.name}" for f in dataclasses.fields(cls)}
        return {name: self.values[key] for name, key in keys.items() if key in SETTINGS}

    def train_config(self, region: str, variant: str) -> lstm.TrainConfig:
        return dataclasses.replace(self.train, seed=derive_seed(self["seed"], f"train:{region}:{variant}"))

    def to_text(self) -> str:
        return "".join(f"{key} = {0 if v is None else v}\n" for key, v in self.values.items())


def run_synth(cfg: synthgen.SynthConfig, datasets, truth_path, masked_path) -> None:
    """Write the truth and masked ``datasets`` that ``cfg`` generated."""
    log(f"synth: seed={cfg.seed} months={cfg.months} missing_rate={cfg.missing_rate}")
    truth, masked = datasets
    data_model.write_csv(truth, truth_path)
    data_model.write_csv(masked, masked_path)


def run_impute(dataset: Dataset, out_path, log_path, forest_cfg, seed, max_iter) -> Dataset:
    stage_seed = derive_seed(seed, "impute")
    log(f"impute: seed={seed} stage_seed={stage_seed} n_trees={forest_cfg.n_trees} max_iter={max_iter}")
    completed, results = imputation.impute_dataset(
        dataset, forest_cfg, Rng(stage_seed), max_iter
    )
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
    dataset: Dataset, region, variant, lookback, train_fraction, train_cfg, model_path, loss_path
) -> lstm.TrainedModel:
    log(
        f"train: region={region} variant={variant} lookback={lookback} "
        f"fraction={train_fraction} seed={train_cfg.seed} hidden={train_cfg.hidden} "
        f"epochs={train_cfg.epochs}"
    )
    spec = windowing.WindowSpec(lookback=lookback, variant=variant)
    windows = windowing.make_windows(dataset, region, spec)
    train_part, _ = windowing.split_train_test(windows, train_fraction)
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


def run_forecast(model: lstm.TrainedModel, dataset: Dataset, out_path, region=None, recursive=False):
    """Forecast the model's test horizon and write it; returns the forecast
    as ``{(region, variant): [(month, observed, predicted), ...]}``."""
    if region is None:
        if len(dataset.provinces) != 1:
            raise DataError(
                f"input has provinces {dataset.provinces}; pass --region to pick one"
            )
        region = dataset.provinces[0]
    log(f"forecast: region={region} variant={model.spec.variant} recursive={recursive}")
    months, observed, predicted = lstm.forecast_test_horizon(
        model, dataset, region, recursive=recursive
    )
    rows = [(month, float(obs), float(pred)) for month, obs, pred in zip(months, observed, predicted)]
    data_model.write_table(
        out_path,
        FORECAST_HEADER,
        (
            [region, model.spec.variant, month.year, month.month, repr(obs), repr(pred)]
            for month, obs, pred in rows
        ),
    )
    return {(region, model.spec.variant): rows}


def _read_forecast_csv(path):
    """A forecast file, in the form :func:`run_forecast` returns."""
    groups: dict[tuple[str, str], list] = {}
    records = data_model.read_csv(path)
    header = next(records, (0, None))[1]
    if header != FORECAST_HEADER:
        raise DataError(f"{path}: unrecognized forecast header {header!r}")
    for line_no, row in records:
        if len(row) != 6:
            raise DataError(f"{path} line {line_no}: expected 6 cells, got {len(row)}")
        if row[0] not in evaluation.REGION_ORDER or row[1] not in windowing.VARIANTS:
            raise DataError(f"{path} line {line_no}: unknown region or variant {row[:2]!r}")
        try:
            key = (row[0], row[1])
            month = data_model.MonthKey(int(row[2]), int(row[3]))
            groups.setdefault(key, []).append((month, float(row[4]), float(row[5])))
        except ValueError:
            raise DataError(f"{path} line {line_no}: malformed forecast row") from None
    return groups


def run_evaluate(forecasts, out_dir) -> None:
    """Score forecasts (each in the form :func:`run_forecast` returns) and
    write the report, tables and curves to ``out_dir``."""
    log(f"evaluate: {len(forecasts)} forecasts -> {out_dir}")
    groups: dict[tuple[str, str], list] = {}
    for forecast in forecasts:
        for key, rows in forecast.items():
            groups.setdefault(key, []).extend(rows)
    reports = []
    for (region, variant), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r[0])
        for a, b in zip(rows, rows[1:]):
            if a[0] == b[0]:
                raise DataError(f"duplicate forecast month {a[0]} for {region} {variant}")
        reports.append(evaluation.make_report(region, variant, *zip(*rows)))
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
    test horizon with it; returns the forecast. One job of the pipeline's pool."""
    stem = f"{region}_{variant}"
    model = run_train(
        dataset,
        region,
        variant,
        cfg["window.lookback"],
        cfg["window.train_fraction"],
        cfg.train_config(region, variant),
        out / "models" / f"{stem}.model",
        out / "losses" / f"{stem}.csv",
    )
    return run_forecast(
        model, dataset, out / "forecasts" / f"{stem}.csv", region, cfg["forecast.recursive"]
    )


def run_pipeline(cfg: Config) -> None:
    if not cfg["out_dir"]:
        raise ConfigError(f"out_dir is required (flag, config file, or ${OUT_DIR_ENV})")
    for key in ("input_csv", "map_csv"):
        if cfg[key] and not Path(cfg[key]).exists():
            raise ConfigError(f"{key} path does not exist: {cfg[key]}")
    # The input files are read before anything is written.
    redistricting = data_model.BURUNDI_REDISTRICTING
    if cfg["map_csv"]:
        redistricting = data_model.read_map_csv(cfg["map_csv"])
    # The synthetic pair is generated in memory, and checked like an input.
    synthetic = None if cfg["input_csv"] else synthgen.generate(cfg.synth)
    masked = data_model.ingest_csv(cfg["input_csv"]) if cfg["input_csv"] else synthetic[1]
    imputation.require_observed(masked)
    # Every model splits the same number of windows, known before any file
    # is written.
    months = masked.cases.shape[1]
    lookback = cfg["window.lookback"]
    try:
        windowing.split_index(max(months - lookback, 0), cfg["window.train_fraction"])
    except ValueError as exc:
        raise ConfigError(f"{months} months at window.lookback {lookback}: {exc}") from None

    out = Path(cfg["out_dir"])
    for sub in ("models", "losses", "forecasts"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    data_model.atomic_write(out / "run_config.txt", cfg.to_text())
    log(f"pipeline: seed={cfg['seed']} out={out} workers={parallel.usable_cpus()}")

    if synthetic:
        run_synth(cfg.synth, synthetic, out / "truth.csv", out / "masked.csv")
    completed = run_impute(
        masked,
        out / "completed.csv",
        out / "impute_log.csv",
        cfg.forest,
        cfg["seed"],
        cfg["impute.max_iter"],
    )
    aggregated = run_aggregate(completed, out / "aggregated.csv", "new", redistricting)
    country = run_aggregate(aggregated, out / "country.csv", "country")

    jobs = [
        (country if region == data_model.COUNTRY_NAME else aggregated, region, variant)
        for region, variant in itertools.product(evaluation.REGION_ORDER, windowing.VARIANTS)
    ]
    forecasts = parallel.pmap(functools.partial(run_model, cfg, out), *zip(*jobs))
    run_evaluate(forecasts, out)


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
    p.add_argument("--region", help="needed when the input has several provinces")
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
        values = {}
        if getattr(args, "config", None):
            values = read_config(args.config, "synth." if args.command == "synth" else "")
        if args.command == "pipeline" and os.environ.get(OUT_DIR_ENV):
            values.setdefault("out_dir", os.environ[OUT_DIR_ENV])
        stage = args.command != "pipeline"
        values.update(
            (k, parse_setting(k, v, "command line", _flag(k, stage)))
            for k, v in vars(args).items()
            if k in SETTINGS and v is not None
        )
        cfg = Config(values)
        if args.command == "synth":
            run_synth(cfg.synth, synthgen.generate(cfg.synth), args.out_truth, args.out_masked)
        elif args.command == "impute":
            run_impute(
                data_model.ingest_csv(args.in_path),
                args.out_path,
                args.log_path,
                cfg.forest,
                cfg["seed"],
                cfg["impute.max_iter"],
            )
        elif args.command == "aggregate":
            dataset = data_model.ingest_csv(args.in_path)
            redistricting = data_model.BURUNDI_REDISTRICTING
            if args.map_path:
                redistricting = data_model.read_map_csv(args.map_path)
            run_aggregate(dataset, args.out_path, args.level, redistricting)
        elif args.command == "train":
            run_train(
                data_model.ingest_csv(args.in_path),
                args.region,
                args.variant,
                cfg["window.lookback"],
                cfg["window.train_fraction"],
                cfg.train_config(args.region, args.variant),
                args.out_model,
                args.out_loss,
            )
        elif args.command == "forecast":
            model = lstm.load_model(args.model)
            dataset = data_model.ingest_csv(args.in_path)
            run_forecast(model, dataset, args.out_path, args.region, cfg["forecast.recursive"])
        elif args.command == "evaluate":
            run_evaluate([_read_forecast_csv(path) for path in args.forecasts], args.out_dir)
        elif args.command == "pipeline":
            run_pipeline(cfg)
    except Exception as exc:  # single-line machine-parsable failure
        for klass, category in _ERROR_CATEGORIES:
            if isinstance(exc, klass):
                print(f"error:{category}: {exc}", file=sys.stderr)
                return 1
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
