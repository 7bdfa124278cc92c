import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import make_series, month_seq, read_curves
from malaria_forecast.errors import CompletenessError, DataError
from malaria_forecast.evaluation import (
    REGION_ORDER,
    build_comparison,
    emit_curves,
    make_report,
    persistence_baseline,
    render_comparison_text,
    render_totals_text,
    rmse,
    write_comparison_csv,
    write_svg,
    write_totals_csv,
)
from malaria_forecast.windowing import WindowSpec, make_windows, split_train_test


class TestRmse:
    def test_identity(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_closed_form(self):
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_symmetry(self):
        a = np.random.default_rng(0).uniform(0, 10, size=20)
        b = np.random.default_rng(1).uniform(0, 10, size=20)
        assert rmse(a, b) == rmse(b, a)

    def test_linear_scaling(self):
        a = np.random.default_rng(2).uniform(0, 10, size=20)
        b = np.random.default_rng(3).uniform(0, 10, size=20)
        assert rmse(3.0 * a, 3.0 * b) == pytest.approx(3.0 * rmse(a, b), rel=1e-12)

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            rmse([], [])
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


class TestPersistence:
    def test_constant_series_perfect(self):
        series = make_series("A", 10, cases=[7] * 10)
        w = make_windows(series, "A", WindowSpec(3, "univariate"))
        preds = persistence_baseline(w)
        assert rmse(w.targets, preds) == 0.0

    def test_small_example(self):
        series = make_series("A", 3, cases=[1, 2, 3])
        w = make_windows(series, "A", WindowSpec(2, "univariate"))
        assert persistence_baseline(w).tolist() == [2.0]
        assert w.targets.tolist() == [3.0]

    def test_inverts_scaled_partitions(self):
        series = make_series("A", 30, cases=list(range(10, 40)))
        w = make_windows(series, "A", WindowSpec(6, "univariate"))
        _, test = split_train_test(w, 0.8)
        preds = persistence_baseline(test)
        raw_expected = [float(c) for c in series.cases[0, 30 - test.samples :]]
        # each prediction is the case count of the month before its target
        assert np.allclose(preds, [v - 1 for v in w.targets[-test.samples :]], atol=1e-9)
        assert np.allclose(preds, np.asarray(raw_expected) - 1.0, atol=1e-9)

    def test_univariate_lstm_beats_persistence_on_seasonal_data(self):
        # End-to-end empirical oracle, 20 training seeds, clean seasonal data.
        from malaria_forecast.lstm import TrainConfig, predict, train
        from malaria_forecast.synthgen import SynthConfig, generate

        cfg = SynthConfig(
            seed=3, months=84, provinces=("Alpha",), missing_rate=0.0,
            climate_noise=0.0, case_noise=0.0, rain_weight=0.4, temp_weight=0.2,
        )
        truth, _ = generate(cfg)
        w = make_windows(truth, "Alpha", WindowSpec(12, "univariate"))
        train_part, test_part = split_train_test(w, 0.8)
        observed = test_part.target_scaler.inverse(test_part.targets.reshape(-1, 1)).ravel()
        persistence_rmse = rmse(observed, persistence_baseline(test_part))
        scores = []
        for seed in range(20):
            model = train(train_part, TrainConfig(hidden=16, epochs=300, seed=seed))
            scores.append(rmse(observed, predict(model, test_part.inputs)))
        assert float(np.median(scores)) < persistence_rmse


def region_report(region, variant, scale=1.0, n=24):
    months = month_seq(2020, 10, n)
    observed = np.linspace(100, 200, n) * scale
    predicted = observed + (5.0 if variant == "univariate" else 15.0)
    return make_report(region, variant, months, observed, predicted)


def full_report_set():
    reports = []
    for i, region in enumerate(REGION_ORDER):
        for variant in ("univariate", "multivariate"):
            reports.append(region_report(region, variant, scale=1.0 + i))
    return reports


class TestReports:
    def test_totals_match_sums(self):
        report = region_report("Gitega", "univariate")
        assert report.observed_total == pytest.approx(float(np.sum(report.observed)))
        assert report.predicted_total == pytest.approx(float(np.sum(report.predicted)))

    def test_zero_prediction_total(self):
        months = month_seq(2021, 1, 3)
        report = make_report("Gitega", "univariate", months, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert (report.observed_total, report.predicted_total) == (6.0, 0.0)

    def test_invariants_enforced(self):
        months = month_seq(2021, 1, 2)
        for variant in ("novel-variant", "baseline"):
            with pytest.raises(ValueError):
                make_report("Gitega", variant, months, [1.0, 2.0], [1.0, 2.0])


class TestComparison:
    def test_six_rows_in_canonical_order(self):
        rows = build_comparison(full_report_set())
        assert len(rows) == 6
        labels = [row[0] for row in rows]
        assert labels == [
            "Bujumbura",
            "Gitega",
            "Burunga",
            "Butanyerera",
            "Buhumuza",
            "Country level: Burundi",
        ]

    def test_missing_report_named(self):
        reports = [
            r
            for r in full_report_set()
            if not (r.region == "Burundi" and r.model_variant == "multivariate")
        ]
        with pytest.raises(CompletenessError, match="multivariate.*Burundi"):
            build_comparison(reports)

    def test_duplicate_rejected(self):
        reports = full_report_set()
        with pytest.raises(CompletenessError, match="duplicate"):
            build_comparison(reports + [reports[0]])

    def test_variants_over_different_months_or_observations_are_refused(self, tmp_path):
        reports = full_report_set()
        gitega = REGION_ORDER.index("Gitega")
        uni = reports[2 * gitega]
        late = make_report("Gitega", "multivariate", uni.months[1:], uni.observed[1:], uni.predicted[1:])
        recounted = make_report("Gitega", "multivariate", uni.months, uni.observed + 1.0, uni.predicted)
        path = tmp_path / "totals.csv"
        for multi, span in ((late, "2020-11..2022-09 (23 months)"), (recounted, "2020-10..2022-09 (24 months)")):
            bad = reports[: 2 * gitega + 1] + [multi] + reports[2 * gitega + 2 :]
            message = f"Gitega: the univariate forecast covers 2020-10..2022-09 (24 months) and the multivariate forecast {span};"
            for build in (build_comparison, render_totals_text, lambda r: write_totals_csv(r, path)):
                with pytest.raises(DataError, match=f"^{re.escape(message)}"):
                    build(bad)
        assert not path.exists()

    def test_rendering_is_byte_stable(self):
        table = build_comparison(full_report_set())
        assert render_comparison_text(table) == render_comparison_text(table)
        text = render_comparison_text(table)
        lines = text.splitlines()
        assert lines[0].split() == ["Province", "Univariate", "LSTM", "Multivariate", "LSTM"]
        assert len(lines) == 7
        for line in lines[1:]:
            assert line.split()[-1].count(".") == 1  # two-decimal dot notation

    def test_csv_layout(self, tmp_path):
        table = build_comparison(full_report_set())
        path = tmp_path / "comparison.csv"
        write_comparison_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "region,univariate_rmse,multivariate_rmse"
        assert len(lines) == 7
        assert lines[1].startswith("Bujumbura,")
        assert lines[6].startswith("Country level: Burundi,")

    def test_totals_text_format(self):
        text = render_totals_text(full_report_set())
        lines = text.splitlines()
        assert lines[0] == "Cases over the forecast horizon"
        assert len(lines) == 7
        assert lines[1].startswith("Bujumbura: observed ")
        assert "univariate" in lines[1] and "multivariate" in lines[1]
        assert lines[6].startswith("Country level: Burundi: observed ")

    def test_totals_csv(self, tmp_path):
        path = tmp_path / "totals.csv"
        write_totals_csv(full_report_set(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "region,observed_total,univariate_total,multivariate_total"
        assert len(lines) == 7

    def test_totals_refuse_an_incomplete_or_duplicated_set(self, tmp_path):
        reports = full_report_set()
        path = tmp_path / "totals.csv"
        for bad, match in ((reports[1:], "missing"), (reports + [reports[-1]], "duplicate")):
            with pytest.raises(CompletenessError, match=match):
                render_totals_text(bad)
            with pytest.raises(CompletenessError, match=match):
                write_totals_csv(bad, path)
        assert not path.exists()


class TestCurves:
    def test_csv_rows_and_round_trip(self, tmp_path):
        report = region_report("Gitega", "univariate", n=24)
        path = tmp_path / "curve.csv"
        emit_curves(report, path, tmp_path / "curve.svg")
        lines = path.read_text().splitlines()
        assert lines[0] == "month,observed,predicted"
        assert len(lines) == 25
        months, observed, predicted = read_curves(path)
        assert months == report.months
        assert np.array_equal(observed, report.observed)
        assert np.array_equal(predicted, report.predicted)

    def test_svg_has_exactly_two_polylines(self, tmp_path):
        report = region_report("Burundi", "multivariate")
        path = tmp_path / "curve.svg"
        write_svg(report, path)
        root = ET.parse(path).getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_svg_byte_stable(self, tmp_path):
        report = region_report("Gitega", "univariate")
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg(report, a)
        write_svg(report, b)
        assert a.read_bytes() == b.read_bytes()
