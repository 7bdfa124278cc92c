"""Forecast scoring and report rendering.

Produces the three report artifacts: a six-row comparison table (five new
provinces plus the country line, univariate vs multivariate RMSE), per-region
totals over the forecast horizon, and per-month curve files (CSV and an
optional SVG with exactly two polylines). Numbers in reports use fixed
two-decimal dot notation; curve CSVs keep full precision so they round-trip.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data_model import COUNTRY_NAME, MonthKey
from .errors import CompletenessError
from .windowing import VARIANTS, WindowedDataset

__all__ = [
    "ForecastReport",
    "ComparisonTable",
    "REGION_ORDER",
    "rmse",
    "persistence_baseline",
    "make_report",
    "build_comparison",
    "render_comparison_text",
    "write_comparison_csv",
    "render_totals_text",
    "write_totals_csv",
    "emit_curves",
    "read_curves",
    "write_svg",
]

REGION_ORDER = ["Bujumbura", "Gitega", "Burunga", "Butanyerera", "Buhumuza", COUNTRY_NAME]


def region_label(region: str) -> str:
    return f"Country level: {region}" if region == COUNTRY_NAME else region


def rmse(observed, predicted) -> float:
    """Root mean square error between two equally long non-empty series."""
    observed = np.asarray(observed, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if observed.size == 0 or observed.shape != predicted.shape:
        raise ValueError(
            f"series must be non-empty and equal length, got {observed.shape} vs {predicted.shape}"
        )
    return float(np.sqrt(np.mean((observed - predicted) ** 2)))


def persistence_baseline(windows: WindowedDataset) -> np.ndarray:
    """Naive forecast: repeat each window's last observed case value.

    Works on scaled partitions (inverting with the stored input scaler) and
    on raw windows alike. Cases are the last feature in both variants.
    """
    last = windows.inputs[:, -1, :]
    if windows.input_scaler is not None:
        last = windows.input_scaler.inverse(last)
    return last[:, -1].copy()


@dataclass
class ForecastReport:
    """Predicted vs observed case counts for one region and model variant."""

    region: str
    model_variant: str
    months: list[MonthKey]
    observed: np.ndarray
    predicted: np.ndarray
    rmse: float
    observed_total: float
    predicted_total: float

    def __post_init__(self):
        if self.model_variant not in VARIANTS:
            raise ValueError(f"unknown model variant {self.model_variant!r}")
        n = len(self.months)
        if not (len(self.observed) == len(self.predicted) == n) or n == 0:
            raise ValueError("months, observed and predicted must be equally long and non-empty")
        if self.rmse < 0:
            raise ValueError("rmse must be non-negative")
        for total, series in ((self.observed_total, self.observed), (self.predicted_total, self.predicted)):
            if not math.isclose(total, float(np.sum(series)), rel_tol=1e-12, abs_tol=1e-9):
                raise ValueError("totals must equal the series sums")


def make_report(region, model_variant, months, observed, predicted) -> ForecastReport:
    observed = np.asarray(observed, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    return ForecastReport(
        region=region,
        model_variant=model_variant,
        months=list(months),
        observed=observed,
        predicted=predicted,
        rmse=rmse(observed, predicted),
        observed_total=float(np.sum(observed)),
        predicted_total=float(np.sum(predicted)),
    )


@dataclass
class ComparisonTable:
    """Six rows of (region label, univariate RMSE, multivariate RMSE)."""

    rows: list[tuple[str, float, float]]


def _index_reports(reports: Sequence[ForecastReport]) -> dict[tuple[str, str], ForecastReport]:
    indexed = {}
    for report in reports:
        key = (report.region, report.model_variant)
        if key in indexed:
            raise CompletenessError(f"duplicate report for {key[0]} {key[1]}")
        indexed[key] = report
    return indexed


def build_comparison(reports: Sequence[ForecastReport]) -> ComparisonTable:
    """Assemble the region-by-variant RMSE table in the canonical row order."""
    indexed = _index_reports(reports)
    rows = []
    for region in REGION_ORDER:
        pair = []
        for variant in VARIANTS:
            report = indexed.get((region, variant))
            if report is None:
                raise CompletenessError(f"missing {variant} report for region {region!r}")
            pair.append(report.rmse)
        rows.append((region_label(region), pair[0], pair[1]))
    return ComparisonTable(rows=rows)


def render_comparison_text(table: ComparisonTable) -> str:
    """Aligned plain-text table; byte-stable for a fixed report set."""
    headers = ("Province", "Univariate LSTM", "Multivariate LSTM")
    cells = [(label, f"{uni:.2f}", f"{multi:.2f}") for label, uni, multi in table.rows]
    widths = [
        max(len(headers[j]), max(len(row[j]) for row in cells)) for j in range(3)
    ]
    lines = [
        "  ".join(
            [headers[0].ljust(widths[0]), headers[1].rjust(widths[1]), headers[2].rjust(widths[2])]
        )
    ]
    for row in cells:
        lines.append(
            "  ".join([row[0].ljust(widths[0]), row[1].rjust(widths[1]), row[2].rjust(widths[2])])
        )
    return "\n".join(lines) + "\n"


def write_comparison_csv(table: ComparisonTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "univariate_rmse", "multivariate_rmse"])
        for label, uni, multi in table.rows:
            writer.writerow([label, f"{uni:.2f}", f"{multi:.2f}"])


def render_totals_text(reports: Sequence[ForecastReport]) -> str:
    """Per-region horizon totals: observed next to each model's prediction."""
    indexed = _index_reports(reports)
    lines = ["Cases over the forecast horizon"]
    for region in REGION_ORDER:
        uni = indexed.get((region, "univariate"))
        multi = indexed.get((region, "multivariate"))
        if uni is None or multi is None:
            raise CompletenessError(f"missing univariate/multivariate report for {region!r}")
        lines.append(
            f"{region_label(region)}: observed {uni.observed_total:.2f}, "
            f"univariate {uni.predicted_total:.2f}, multivariate {multi.predicted_total:.2f}"
        )
    return "\n".join(lines) + "\n"


def write_totals_csv(reports: Sequence[ForecastReport], path) -> None:
    indexed = _index_reports(reports)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "observed_total", "univariate_total", "multivariate_total"])
        for region in REGION_ORDER:
            uni = indexed[(region, "univariate")]
            multi = indexed[(region, "multivariate")]
            writer.writerow(
                [
                    region_label(region),
                    f"{uni.observed_total:.2f}",
                    f"{uni.predicted_total:.2f}",
                    f"{multi.predicted_total:.2f}",
                ]
            )


def emit_curves(report: ForecastReport, csv_path, svg_path=None) -> None:
    """Write the per-month curve data; optionally render an SVG.

    The CSV keeps full float precision (repr) so re-ingesting reproduces the
    series exactly. The SVG holds exactly two polylines: observed then
    predicted.
    """
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "observed", "predicted"])
        for month, obs, pred in zip(report.months, report.observed, report.predicted):
            writer.writerow([str(month), repr(float(obs)), repr(float(pred))])
    if svg_path is not None:
        write_svg(report, svg_path)


def read_curves(path) -> tuple[list[MonthKey], np.ndarray, np.ndarray]:
    """Read back a curve CSV written by :func:`emit_curves`."""
    months, observed, predicted = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["month", "observed", "predicted"]:
            raise ValueError(f"{path}: unexpected curve header {header!r}")
        for row in reader:
            year, month = row[0].split("-")
            months.append(MonthKey(int(year), int(month)))
            observed.append(float(row[1]))
            predicted.append(float(row[2]))
    return months, np.asarray(observed), np.asarray(predicted)


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 800, 400, 45


def _polyline_points(values, lo, hi, n) -> str:
    span = hi - lo if hi > lo else 1.0
    pts = []
    inner_w = SVG_WIDTH - 2 * SVG_MARGIN
    inner_h = SVG_HEIGHT - 2 * SVG_MARGIN
    for i, v in enumerate(values):
        x = SVG_MARGIN + inner_w * (i / max(n - 1, 1))
        y = SVG_HEIGHT - SVG_MARGIN - inner_h * ((v - lo) / span)
        pts.append(f"{x:.2f},{y:.2f}")
    return " ".join(pts)


def write_svg(report: ForecastReport, path) -> None:
    """Minimal deterministic SVG: two polylines (observed, predicted)."""
    n = len(report.months)
    lo = min(float(np.min(report.observed)), float(np.min(report.predicted)), 0.0)
    hi = max(float(np.max(report.observed)), float(np.max(report.predicted)), 1.0)
    observed = _polyline_points(report.observed, lo, hi, n)
    predicted = _polyline_points(report.predicted, lo, hi, n)
    title = f"{region_label(report.region)} ({report.model_variant})"
    first, last = report.months[0], report.months[-1]
    body = f"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">
  <rect x="{SVG_MARGIN}" y="{SVG_MARGIN}" width="{SVG_WIDTH - 2 * SVG_MARGIN}" height="{SVG_HEIGHT - 2 * SVG_MARGIN}" fill="none" stroke="#888"/>
  <text x="{SVG_WIDTH // 2}" y="24" text-anchor="middle" font-family="sans-serif" font-size="16">{title}</text>
  <text x="{SVG_MARGIN}" y="{SVG_HEIGHT - 12}" font-family="sans-serif" font-size="12">{first}</text>
  <text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_HEIGHT - 12}" text-anchor="end" font-family="sans-serif" font-size="12">{last}</text>
  <text x="{SVG_WIDTH - SVG_MARGIN - 180}" y="{SVG_MARGIN - 8}" font-family="sans-serif" font-size="12" fill="#1f6fb2">observed</text>
  <text x="{SVG_WIDTH - SVG_MARGIN - 80}" y="{SVG_MARGIN - 8}" font-family="sans-serif" font-size="12" fill="#c4451c">predicted</text>
  <polyline points="{observed}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>
  <polyline points="{predicted}" fill="none" stroke="#c4451c" stroke-width="1.5"/>
</svg>
"""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)
