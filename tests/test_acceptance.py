"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""

import time
import xml.etree.ElementTree as ET

import numpy as np

from conftest import month_seq, read_curves, sinusoid_series
from malaria_forecast import cli
from malaria_forecast.data_model import (
    BURUNDI_REDISTRICTING,
    COUNTRY_NAME,
    aggregate_provinces,
    to_country_level,
)
from malaria_forecast.evaluation import (
    REGION_ORDER,
    build_comparison,
    emit_curves,
    make_report,
    persistence_baseline,
    render_comparison_text,
    render_totals_text,
    rmse,
)
from malaria_forecast.imputation import ForestConfig, _province_matrix, missforest_impute
from malaria_forecast.lstm import TrainConfig, gradient_check, init_params, predict, train
from malaria_forecast.synthgen import SynthConfig, generate
from malaria_forecast.windowing import WindowSpec, make_windows, split_train_test


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


GOLDEN_TABLE = (
    "Province                Univariate LSTM  Multivariate LSTM\n"
    "Bujumbura                          1.25              10.50\n"
    "Gitega                             2.50              21.00\n"
    "Burunga                            3.75              31.50\n"
    "Butanyerera                        5.00              42.00\n"
    "Buhumuza                           6.25              52.50\n"
    "Country level: Burundi             7.50              63.00\n"
)

GOLDEN_TOTALS = (
    "Cases over the forecast horizon\n"
    "Bujumbura: observed 400.00, univariate 405.00, multivariate 442.00\n"
    "Gitega: observed 400.00, univariate 410.00, multivariate 484.00\n"
    "Burunga: observed 400.00, univariate 415.00, multivariate 526.00\n"
    "Butanyerera: observed 400.00, univariate 420.00, multivariate 568.00\n"
    "Buhumuza: observed 400.00, univariate 425.00, multivariate 610.00\n"
    "Country level: Burundi: observed 400.00, univariate 430.00, multivariate 652.00\n"
)


def test_criterion_1_report_formats(tmp_path):
    """Six-row comparison table, totals lines, and per-region curve files."""
    months = month_seq(2020, 10, 4)
    reports = []
    for i, region in enumerate(REGION_ORDER):
        observed = np.full(4, 100.0)
        reports.append(make_report(region, "univariate", months, observed, observed + (i + 1) * 1.25))
        reports.append(make_report(region, "multivariate", months, observed, observed + (i + 1) * 10.5))
    table_ok = render_comparison_text(build_comparison(reports)) == GOLDEN_TABLE
    totals_ok = render_totals_text(reports) == GOLDEN_TOTALS

    curves_ok = True
    for report in reports:
        stem = f"{report.region}_{report.model_variant}"
        csv_path = tmp_path / f"{stem}.csv"
        svg_path = tmp_path / f"{stem}.svg"
        emit_curves(report, csv_path, svg_path)
        lines = csv_path.read_text().splitlines()
        curves_ok &= lines[0] == "month,observed,predicted" and len(lines) == 5
        m, obs, pred = read_curves(csv_path)
        curves_ok &= m == report.months
        curves_ok &= np.array_equal(obs, report.observed) and np.array_equal(pred, report.predicted)
        polylines = [el for el in ET.parse(svg_path).getroot().iter() if el.tag.endswith("polyline")]
        curves_ok &= len(polylines) == 2
    _report(1, "report formats", table_ok and totals_ok and curves_ok)


def test_criterion_2_gradient_correctness():
    """Analytic BPTT vs central differences: max relative error < 1e-4."""
    start = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(3, 4, rng)
        inputs = rng.uniform(-1.0, 1.0, size=(4, 5, 3))
        targets = rng.uniform(-1.0, 1.0, size=4)
        errors = gradient_check(params, inputs, targets, epsilon=1e-5)
        worst = max(worst, max(errors.values()))
    elapsed = time.monotonic() - start
    _report(
        2,
        "gradient correctness",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_univariate_learnability():
    """Noiseless period-12 sinusoid: test RMSE < 5% of amplitude in 500 epochs."""
    start = time.monotonic()
    amplitude = 40.0
    series = sinusoid_series(n=200, amplitude=amplitude, mean=60.0)
    windows = make_windows(series, "Signal", WindowSpec(12, "univariate"))
    train_part, test_part = split_train_test(windows, 0.8)
    model = train(train_part, TrainConfig(hidden=16, epochs=500, seed=0))
    observed = test_part.target_scaler.inverse(test_part.targets.reshape(-1, 1)).ravel()
    score = rmse(observed, predict(model, test_part.inputs))
    elapsed = time.monotonic() - start
    _report(
        3,
        "univariate learnability",
        score < 0.05 * amplitude and elapsed < 60.0,
        f"test RMSE {score:.3f} vs {0.05 * amplitude:.1f}, {elapsed:.1f}s",
    )


def test_criterion_4_multivariate_beats_persistence():
    """Noise-free lagged-climate data: multivariate wins >= 15 of 20 trials."""
    wins = 0
    for seed in range(20):
        cfg = SynthConfig(
            seed=seed, months=84, provinces=("Alpha",), missing_rate=0.0,
            climate_noise=0.0, case_noise=0.0, baseline=0.004,
            rain_weight=0.4, temp_weight=0.25,
        )
        truth, _ = generate(cfg)
        windows = make_windows(truth, "Alpha", WindowSpec(12, "multivariate"))
        train_part, test_part = split_train_test(windows, 0.8)
        model = train(train_part, TrainConfig(hidden=16, epochs=300, seed=seed))
        observed = test_part.target_scaler.inverse(test_part.targets.reshape(-1, 1)).ravel()
        lstm_rmse = rmse(observed, predict(model, test_part.inputs))
        persistence_rmse = rmse(observed, persistence_baseline(test_part))
        wins += lstm_rmse < persistence_rmse
    _report(4, "multivariate beats persistence", wins >= 15, f"{wins}/20 wins")


def test_criterion_5_imputation_beats_mean():
    """10% MCAR: missForest NRMSE < mean imputation in >= 18/20; observed intact."""

    def nrmse(truth, imputed, mask):
        err = truth[mask] - imputed[mask]
        return float(np.sqrt(np.mean(err**2) / np.var(truth[mask])))

    wins = 0
    observed_intact = 0
    for seed in range(20):
        cfg = SynthConfig(
            seed=100 + seed, months=60, provinces=("Alpha",), missing_rate=0.10,
            climate_noise=1.0, case_noise=1.0,
        )
        truth, masked = generate(cfg)
        X_truth = _province_matrix(truth, "Alpha")
        X_masked = _province_matrix(masked, "Alpha")
        mask = np.isnan(X_masked)
        result = missforest_impute(X_masked, ForestConfig(n_trees=25), np.random.default_rng(seed))
        observed_intact += np.array_equal(result.completed[~mask], X_masked[~mask])
        X_mean = X_masked.copy()
        mu = np.nanmean(X_masked, axis=0)
        X_mean[mask] = np.take(mu, np.where(mask)[1])
        wins += nrmse(X_truth, result.completed, mask) < nrmse(X_truth, X_mean, mask)
    _report(
        5,
        "imputation beats mean",
        wins >= 18 and observed_intact == 20,
        f"{wins}/20 wins, observed intact {observed_intact}/20",
    )


def test_criterion_6_aggregation_conservation():
    """Country cases == sum(5) == sum(18) exactly; climate means within 1e-9."""
    truth, _ = generate(SynthConfig(seed=9, months=48, missing_rate=0.0))
    new = aggregate_provinces(truth, BURUNDI_REDISTRICTING)
    country = to_country_level(new)
    months = truth.months()
    counts_exact = True
    climate_close = True
    old_rows, new_rows, c = truth.row, new.row, country.row(COUNTRY_NAME)
    for i in range(len(months)):
        old_cases = sum(int(truth.cases[old_rows(p), i]) for p in truth.provinces)
        new_cases = sum(int(new.cases[new_rows(p), i]) for p in new.provinces)
        counts_exact &= old_cases == new_cases == int(country.cases[c, i])
        old_pop = sum(int(truth.population[old_rows(p), i]) for p in truth.provinces)
        counts_exact &= old_pop == int(country.population[c, i])
        for new_province in new.provinces:
            members = sorted(old for old, group in BURUNDI_REDISTRICTING.items() if group == new_province)
            for k in range(3):  # temp_mean, rainfall, rel_humidity
                direct = sum(float(truth.climate[old_rows(m), i, k]) for m in members) / len(members)
                climate_close &= abs(float(new.climate[new_rows(new_province), i, k]) - direct) < 1e-9
        direct_country = sum(float(new.climate[new_rows(p), i, 0]) for p in new.provinces) / 5.0
        climate_close &= abs(float(country.climate[c, i, 0]) - direct_country) < 1e-9
    _report(6, "aggregation conservation", counts_exact and climate_close)


def test_criterion_7_pipeline_determinism(tmp_path):
    """cmd_pipeline twice with one config: byte-identical artifacts."""
    out = tmp_path / "out"
    argv = [
        "pipeline", "--seed", "77", "--out_dir", str(out),
        "--synth.months", "40", "--synth.missing_rate", "0.08",
        "--impute.n_trees", "6", "--impute.max_iter", "4",
        "--train.epochs", "8", "--train.hidden", "6",
    ]
    assert cli.main(argv) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    first = {p.relative_to(out).as_posix(): p.read_bytes() for p in files}
    assert cli.main(argv) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    second = {p.relative_to(out).as_posix(): p.read_bytes() for p in files}
    expected = {"report.txt", "comparison.csv", "totals.csv", "run_config.txt"}
    _report(
        7,
        "pipeline determinism",
        first == second and expected.issubset(first) and len(first) > 40,
        f"{len(first)} artifacts",
    )


def test_criterion_8_rmse_closed_forms():
    """rmse({3,4},{0,0}) == sqrt(12.5) to 12 decimals; rmse(a,a) == 0."""
    value = rmse([3.0, 4.0], [0.0, 0.0])
    closed_form_ok = abs(value - np.sqrt(12.5)) < 1e-12
    a = np.random.default_rng(0).uniform(0.0, 1000.0, size=50)
    identity_ok = rmse(a, a) == 0.0
    _report(8, "rmse closed forms", closed_form_ok and identity_ok)


def test_criterion_9_split_law():
    """10 samples at 0.8 -> exactly 8/2, chronological."""
    series = sinusoid_series(n=22)
    windows = make_windows(series, "Signal", WindowSpec(12, "univariate"))
    assert windows.samples == 10
    train_part, test_part = split_train_test(windows, 0.8)
    sizes_ok = train_part.samples == 8 and test_part.samples == 2
    order_ok = max(train_part.months) < min(test_part.months)
    _report(9, "split law", sizes_ok and order_ok)
