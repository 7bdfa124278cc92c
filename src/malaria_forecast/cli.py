"""Batch command-line front end.

Subcommands cover each pipeline stage (synth, impute, aggregate, train,
forecast, evaluate) plus ``pipeline``, which chains them end to end. Every
command takes the global seed and derives its own stage seed from it, so a
full pipeline run and the equivalent sequence of individual commands produce
byte-identical artifacts. Independent units (the province imputations, and
each model's training and forecast) run on a process pool, which changes no
output byte. Outputs are written atomically (temp file + rename); errors
exit non-zero with a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import data_model, evaluation, imputation, lstm, parallel, synthgen, windowing
from .core_math import Rng, derive_seed
from .errors import (
    CompletenessError,
    ConfigError,
    DataError,
    DivergenceError,
    ShapeError,
)

OUT_DIR_ENV = "MALARIA_FORECAST_OUT"

_ERROR_CATEGORIES = [
    (CompletenessError, "completeness"),
    (DivergenceError, "divergence"),
    (ConfigError, "config"),
    (DataError, "data"),
    (ShapeError, "shape"),
    (FileNotFoundError, "io"),
    (OSError, "io"),
    (ValueError, "argument"),
]


def log(message: str) -> None:
    print(message, file=sys.stderr)


def atomic_write(path, write_fn) -> None:
    """Run ``write_fn(tmp_path)`` on a new uniquely named file beside the
    target, then rename it over the target. If anything fails, the target is
    left as it was and the temp file is removed."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes the file private
        write_fn(Path(tmp))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def parse_kv_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; blank lines and # comments ignored."""
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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


# (config key, type, default) for the pipeline; flags carry the same names.
PIPELINE_KEYS = [
    ("seed", int, 42),
    ("out_dir", str, ""),
    ("input_csv", str, ""),
    ("map_csv", str, ""),
    ("synth.months", int, 120),
    ("synth.start_year", int, 2010),
    ("synth.start_month", int, 1),
    ("synth.missing_rate", float, 0.05),
    ("synth.climate_noise", float, 1.0),
    ("synth.case_noise", float, 1.0),
    ("synth.baseline", float, 0.004),
    ("synth.rain_weight", float, 0.35),
    ("synth.temp_weight", float, 0.2),
    ("synth.pop_growth", float, 0.02),
    ("impute.n_trees", int, 100),
    ("impute.mtry", int, 0),
    ("impute.min_samples_leaf", int, 5),
    ("impute.max_depth", int, 0),
    ("impute.max_iter", int, 10),
    ("window.lookback", int, 12),
    ("window.train_fraction", float, 0.8),
    ("train.hidden", int, 32),
    ("train.epochs", int, 300),
    ("train.learning_rate", float, 1e-3),
    ("train.beta1", float, 0.9),
    ("train.beta2", float, 0.999),
    ("train.eps", float, 1e-8),
    ("train.batch_size", int, 0),
    ("train.clip_norm", float, 5.0),
    ("forecast.recursive", _parse_bool, False),
]


@dataclass
class PipelineConfig:
    values: dict

    @classmethod
    def build(cls, file_mapping: dict[str, str], overrides: dict) -> "PipelineConfig":
        values = {}
        known = {key: cast for key, cast, _ in PIPELINE_KEYS}
        for key in file_mapping:
            if key not in known:
                raise ConfigError(f"unknown pipeline config key {key!r}")
        for key, cast, default in PIPELINE_KEYS:
            value = default
            if key in file_mapping:
                try:
                    value = cast(file_mapping[key])
                except ValueError:
                    raise ConfigError(f"bad value for {key}: {file_mapping[key]!r}") from None
            if overrides.get(key) is not None:
                value = overrides[key]
            values[key] = value
        cfg = cls(values)
        cfg.validate()
        return cfg

    def __getitem__(self, key):
        return self.values[key]

    def validate(self):
        if not 0.0 < self["window.train_fraction"] < 1.0:
            raise ConfigError(
                f"window.train_fraction must be in (0, 1), got {self['window.train_fraction']}"
            )
        if not self["out_dir"]:
            raise ConfigError(f"out_dir is required (flag, config file, or ${OUT_DIR_ENV})")
        for key in ("input_csv", "map_csv"):
            if self[key] and not Path(self[key]).exists():
                raise ConfigError(f"{key} path does not exist: {self[key]}")

    def to_text(self) -> str:
        lines = [f"{key} = {self.values[key]}" for key, _, _ in PIPELINE_KEYS]
        return "\n".join(lines) + "\n"


def _forest_config(n_trees, mtry, min_samples_leaf, max_depth) -> imputation.ForestConfig:
    return imputation.ForestConfig(
        n_trees=n_trees,
        mtry=mtry or None,
        min_samples_leaf=min_samples_leaf,
        max_depth=max_depth or None,
    )


def _train_config(cfg_values, seed) -> lstm.TrainConfig:
    return lstm.TrainConfig(
        hidden=cfg_values["train.hidden"],
        epochs=cfg_values["train.epochs"],
        learning_rate=cfg_values["train.learning_rate"],
        beta1=cfg_values["train.beta1"],
        beta2=cfg_values["train.beta2"],
        eps=cfg_values["train.eps"],
        batch_size=cfg_values["train.batch_size"] or None,
        seed=seed,
        clip_norm=cfg_values["train.clip_norm"],
    )


def run_synth(cfg: synthgen.SynthConfig, truth_path, masked_path) -> None:
    log(f"synth: seed={cfg.seed} months={cfg.months} missing_rate={cfg.missing_rate}")
    truth, masked = synthgen.generate(cfg)
    atomic_write(truth_path, lambda p: data_model.write_csv(truth, p))
    atomic_write(masked_path, lambda p: data_model.write_csv(masked, p))


def run_impute(in_path, out_path, log_path, forest_cfg, seed, max_iter) -> None:
    stage_seed = derive_seed(seed, "impute")
    log(f"impute: seed={seed} stage_seed={stage_seed} n_trees={forest_cfg.n_trees} max_iter={max_iter}")
    dataset = data_model.ingest_csv(in_path)
    completed, results = imputation.impute_dataset(
        dataset, forest_cfg, Rng(stage_seed), max_iter
    )
    atomic_write(out_path, lambda p: data_model.write_csv(completed, p))
    if log_path:
        def _write_log(p):
            with open(p, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["province", "iteration", "delta"])
                for province in sorted(results):
                    for i, delta in enumerate(results[province].delta_history, start=1):
                        writer.writerow([province, i, repr(delta)])
        atomic_write(log_path, _write_log)


def run_aggregate(in_path, out_path, level, map_path=None) -> None:
    log(f"aggregate: level={level} map={map_path or 'built-in'}")
    dataset = data_model.ingest_csv(in_path)
    if level == "new":
        mapping = (
            data_model.read_map_csv(map_path) if map_path else data_model.BURUNDI_REDISTRICTING
        )
        result = data_model.aggregate_provinces(dataset, mapping)
    elif level == "country":
        result = data_model.to_country_level(dataset)
    else:
        raise ConfigError(f"level must be 'new' or 'country', got {level!r}")
    atomic_write(out_path, lambda p: data_model.write_csv(result, p))


def run_train(
    in_path, region, variant, lookback, train_fraction, train_cfg, model_path, loss_path
) -> None:
    log(
        f"train: region={region} variant={variant} lookback={lookback} "
        f"fraction={train_fraction} seed={train_cfg.seed} hidden={train_cfg.hidden} "
        f"epochs={train_cfg.epochs}"
    )
    dataset = data_model.ingest_csv(in_path)
    spec = windowing.WindowSpec(lookback=lookback, variant=variant)
    windows = windowing.make_windows(dataset, region, spec)
    train_part, _ = windowing.split_train_test(windows, train_fraction)
    model = lstm.train(train_part, train_cfg)
    atomic_write(model_path, lambda p: lstm.save_model(model, p))
    if loss_path:
        def _write_loss(p):
            with open(p, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["epoch", "loss"])
                for epoch, loss in enumerate(model.loss_history):
                    writer.writerow([epoch, repr(loss)])
        atomic_write(loss_path, _write_loss)


def run_forecast(model_path, in_path, out_path, region=None, recursive=False) -> None:
    model = lstm.load_model(model_path)
    dataset = data_model.ingest_csv(in_path)
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

    def _write(p):
        with open(p, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["province", "variant", "year", "month", "observed", "predicted"])
            for month, obs, pred in zip(months, observed, predicted):
                writer.writerow(
                    [region, model.spec.variant, month.year, month.month, repr(float(obs)), repr(float(pred))]
                )

    atomic_write(out_path, _write)


def _read_forecast_csv(path):
    groups: dict[tuple[str, str], list] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["province", "variant", "year", "month", "observed", "predicted"]:
            raise DataError(f"{path}: unrecognized forecast header {header!r}")
        for line_no, row in enumerate(reader, start=2):
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


def run_evaluate(forecast_paths, out_dir) -> None:
    log(f"evaluate: {len(forecast_paths)} forecast files -> {out_dir}")
    groups: dict[tuple[str, str], list] = {}
    for path in forecast_paths:
        for key, rows in _read_forecast_csv(path).items():
            groups.setdefault(key, []).extend(rows)
    reports = []
    for (region, variant), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r[0])
        for a, b in zip(rows, rows[1:]):
            if a[0] == b[0]:
                raise DataError(f"duplicate forecast month {a[0]} for {region} {variant}")
        reports.append(
            evaluation.make_report(
                region,
                variant,
                [r[0] for r in rows],
                [r[1] for r in rows],
                [r[2] for r in rows],
            )
        )
    table = evaluation.build_comparison(reports)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "curves").mkdir(exist_ok=True)
    report_text = evaluation.render_comparison_text(table) + "\n" + evaluation.render_totals_text(reports)
    atomic_write_text(out / "report.txt", report_text)
    atomic_write(out / "comparison.csv", lambda p: evaluation.write_comparison_csv(table, p))
    atomic_write(out / "totals.csv", lambda p: evaluation.write_totals_csv(reports, p))
    for report in reports:
        stem = f"{report.region}_{report.model_variant}"
        atomic_write(
            out / "curves" / f"{stem}.csv",
            lambda p, r=report: evaluation.emit_curves(r, p),
        )
        atomic_write(
            out / "curves" / f"{stem}.svg",
            lambda p, r=report: evaluation.write_svg(r, p),
        )


def run_model(cfg: PipelineConfig, out: Path, region: str, variant: str) -> Path:
    """Train one (region, variant) model of the pipeline and forecast its
    test horizon; returns the forecast path. One job of the pipeline's pool."""
    source = out / ("country.csv" if region == data_model.COUNTRY_NAME else "aggregated.csv")
    stem = f"{region}_{variant}"
    train_cfg = _train_config(cfg.values, derive_seed(cfg["seed"], f"train:{region}:{variant}"))
    run_train(
        source,
        region,
        variant,
        cfg["window.lookback"],
        cfg["window.train_fraction"],
        train_cfg,
        out / "models" / f"{stem}.model",
        out / "losses" / f"{stem}.csv",
    )
    forecast_path = out / "forecasts" / f"{stem}.csv"
    run_forecast(
        out / "models" / f"{stem}.model",
        source,
        forecast_path,
        region=region,
        recursive=cfg["forecast.recursive"],
    )
    return forecast_path


def run_pipeline(cfg: PipelineConfig) -> None:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for sub in ("models", "losses", "forecasts"):
        (out / sub).mkdir(exist_ok=True)
    atomic_write_text(out / "run_config.txt", cfg.to_text())
    log(f"pipeline: seed={cfg['seed']} out={out} workers={parallel.usable_cpus()}")

    if cfg["input_csv"]:
        masked_path = Path(cfg["input_csv"])
    else:
        synth_cfg = synthgen.SynthConfig(
            seed=derive_seed(cfg["seed"], "synth"),
            months=cfg["synth.months"],
            start_year=cfg["synth.start_year"],
            start_month=cfg["synth.start_month"],
            missing_rate=cfg["synth.missing_rate"],
            climate_noise=cfg["synth.climate_noise"],
            case_noise=cfg["synth.case_noise"],
            baseline=cfg["synth.baseline"],
            rain_weight=cfg["synth.rain_weight"],
            temp_weight=cfg["synth.temp_weight"],
            pop_growth=cfg["synth.pop_growth"],
        )
        run_synth(synth_cfg, out / "truth.csv", out / "masked.csv")
        masked_path = out / "masked.csv"

    forest_cfg = _forest_config(
        cfg["impute.n_trees"],
        cfg["impute.mtry"],
        cfg["impute.min_samples_leaf"],
        cfg["impute.max_depth"],
    )
    run_impute(
        masked_path,
        out / "completed.csv",
        out / "impute_log.csv",
        forest_cfg,
        cfg["seed"],
        cfg["impute.max_iter"],
    )
    run_aggregate(
        out / "completed.csv",
        out / "aggregated.csv",
        "new",
        cfg["map_csv"] or None,
    )
    run_aggregate(out / "aggregated.csv", out / "country.csv", "country")

    stems = itertools.product(evaluation.REGION_ORDER, windowing.VARIANTS)
    forecast_paths = parallel.pmap(functools.partial(run_model, cfg, out), *zip(*stems))
    run_evaluate(forecast_paths, out)


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=42, help="global seed; stages derive their own")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malaria-forecast",
        description="Forecast monthly malaria cases from province-level climate and case series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic truth/masked dataset pair")
    p.add_argument(
        "--seed", type=int, default=None, help="global seed (falls back to the config file, then 42)"
    )
    p.add_argument("--config", help="key = value file with SynthConfig fields")
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-masked", required=True)
    for name in ("months", "start-year", "start-month"):
        p.add_argument(f"--{name}", type=int)
    for name in (
        "missing-rate",
        "climate-noise",
        "case-noise",
        "baseline",
        "rain-weight",
        "temp-weight",
        "pop-growth",
    ):
        p.add_argument(f"--{name}", type=float)

    p = sub.add_parser("impute", help="fill missing climate values (iterative random forest)")
    _add_seed(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--log", dest="log_path", help="per-iteration change statistic CSV")
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--mtry", type=int, default=0, help="0 = ceil(sqrt(features))")
    p.add_argument("--min-samples-leaf", type=int, default=5)
    p.add_argument("--max-depth", type=int, default=0, help="0 = unbounded")
    p.add_argument("--max-iter", type=int, default=10)

    p = sub.add_parser("aggregate", help="regroup provinces (18 -> 5) or collapse to country")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--level", choices=["new", "country"], required=True)
    p.add_argument("--map", dest="map_path", help="old_province,new_province CSV (default: built-in)")

    p = sub.add_parser("train", help="train one LSTM forecaster for one region")
    _add_seed(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--variant", choices=["univariate", "multivariate"], required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-loss", help="epoch,loss CSV")
    p.add_argument("--lookback", type=int, default=12)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--batch-size", type=int, default=0, help="0 = full batch")
    p.add_argument("--clip-norm", type=float, default=5.0)

    p = sub.add_parser("forecast", help="one-step forecasts over a model's test horizon")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--region", help="needed when the input has several provinces")
    p.add_argument("--recursive", action="store_true", help="feed predictions back as case inputs")

    p = sub.add_parser("evaluate", help="comparison table, totals, and curve files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("forecasts", nargs="+", help="forecast CSVs from the forecast command")

    p = sub.add_parser("pipeline", help="synth -> impute -> aggregate -> train -> evaluate")
    p.add_argument("--config", help="key = value pipeline config file")
    for key, cast, _ in PIPELINE_KEYS:
        if cast is _parse_bool:
            p.add_argument(f"--{key}", type=_parse_bool, default=None, metavar="BOOL")
        else:
            p.add_argument(f"--{key}", type=cast, default=None)
    return parser


def _synth_config_from_args(args) -> synthgen.SynthConfig:
    mapping = parse_kv_file(args.config) if args.config else {}
    flags = {
        "months": args.months,
        "start_year": args.start_year,
        "start_month": args.start_month,
        "missing_rate": args.missing_rate,
        "climate_noise": args.climate_noise,
        "case_noise": args.case_noise,
        "baseline": args.baseline,
        "rain_weight": args.rain_weight,
        "temp_weight": args.temp_weight,
        "pop_growth": args.pop_growth,
    }
    for key, value in flags.items():
        if value is not None:
            mapping[key] = value
    seed = args.seed if args.seed is not None else int(mapping.pop("seed", 42))
    mapping.pop("seed", None)
    cfg = synthgen.SynthConfig.from_mapping(mapping)
    fields = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    fields["seed"] = derive_seed(seed, "synth")
    return synthgen.SynthConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            run_synth(_synth_config_from_args(args), args.out_truth, args.out_masked)
        elif args.command == "impute":
            forest_cfg = _forest_config(
                args.n_trees, args.mtry, args.min_samples_leaf, args.max_depth
            )
            run_impute(
                args.in_path, args.out_path, args.log_path, forest_cfg, args.seed, args.max_iter
            )
        elif args.command == "aggregate":
            run_aggregate(args.in_path, args.out_path, args.level, args.map_path)
        elif args.command == "train":
            train_values = {
                "train.hidden": args.hidden,
                "train.epochs": args.epochs,
                "train.learning_rate": args.learning_rate,
                "train.beta1": args.beta1,
                "train.beta2": args.beta2,
                "train.eps": args.eps,
                "train.batch_size": args.batch_size,
                "train.clip_norm": args.clip_norm,
            }
            train_cfg = _train_config(
                train_values, derive_seed(args.seed, f"train:{args.region}:{args.variant}")
            )
            run_train(
                args.in_path,
                args.region,
                args.variant,
                args.lookback,
                args.train_fraction,
                train_cfg,
                args.out_model,
                args.out_loss,
            )
        elif args.command == "forecast":
            run_forecast(args.model, args.in_path, args.out_path, args.region, args.recursive)
        elif args.command == "evaluate":
            run_evaluate(args.forecasts, args.out_dir)
        elif args.command == "pipeline":
            mapping = parse_kv_file(args.config) if args.config else {}
            overrides = {key: getattr(args, key) for key, _, _ in PIPELINE_KEYS}
            if overrides.get("out_dir") is None and "out_dir" not in mapping:
                env_dir = os.environ.get(OUT_DIR_ENV)
                if env_dir:
                    overrides["out_dir"] = env_dir
            run_pipeline(PipelineConfig.build(mapping, overrides))
    except Exception as exc:  # single-line machine-parsable failure
        for klass, category in _ERROR_CATEGORIES:
            if isinstance(exc, klass):
                print(f"error:{category}: {exc}", file=sys.stderr)
                return 1
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
