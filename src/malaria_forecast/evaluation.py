"""Forecast scoring and report rendering.

Produces the three report artifacts: a six-row comparison table (five new
provinces plus the country line, univariate vs multivariate RMSE), per-region
totals over the forecast horizon, and per-month curve files (CSV and an
SVG with exactly two polylines). Numbers in reports use fixed
two-decimal dot notation; curve CSVs keep full precision so they round-trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data_model import BURUNDI_REDISTRICTING_GROUPS, COUNTRY_NAME, MonthKey, atomic_write, write_table
from .errors import CompletenessError, DataError
from .lstm import loss_mse
from .windowing import VARIANTS, WindowedDataset

REGION_ORDER = [*BURUNDI_REDISTRICTING_GROUPS, COUNTRY_NAME]


def region_label(region: str) -> str:
    return f"Country level: {region}" if region == COUNTRY_NAME else region


def rmse(observed, predicted) -> float:
    """Root mean square error between two equally long non-empty series."""
    return math.sqrt(loss_mse(observed, predicted))


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
    """Predicted vs observed case counts for one region and model variant, as
    equally long, non-empty series; :func:`make_report` computes the RMSE and the totals."""

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


def make_report(region, model_variant, months, observed, predicted) -> ForecastReport:
    """The report of one forecast. Its values are at most MAX_MAGNITUDE in
    size, as the forecast reader and ``predict`` ensure, so the RMSE and the
    totals are finite."""
    observed = np.asarray(observed, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    scores = rmse(observed, predicted), float(np.sum(observed)), float(np.sum(predicted))
    return ForecastReport(region, model_variant, list(months), observed, predicted, *scores)


def _index_reports(reports: Sequence[ForecastReport]) -> list[tuple[str, ForecastReport, ForecastReport]]:
    """The label of each region of :data:`REGION_ORDER` with its univariate
    and multivariate report; CompletenessError for a duplicate or a missing
    report, DataError for a region whose two reports differ in months or in
    observed values, as their scores would not be comparable."""
    indexed = {}
    for report in reports:
        key = (report.region, report.model_variant)
        if key in indexed:
            raise CompletenessError(f"duplicate report for {key[0]} {key[1]}")
        indexed[key] = report
    for region in REGION_ORDER:
        for variant in VARIANTS:
            if (region, variant) not in indexed:
                raise CompletenessError(f"missing {variant} report for region {region!r}")
    pairs = [(region, indexed[region, "univariate"], indexed[region, "multivariate"]) for region in REGION_ORDER]
    for region, uni, multi in pairs:
        if uni.months != multi.months or not np.array_equal(uni.observed, multi.observed):
            spans = [f"{r.months[0]}..{r.months[-1]} ({len(r.months)} months)" for r in (uni, multi)]
            raise DataError(
                f"{region}: the univariate forecast covers {spans[0]} and the multivariate forecast"
                f" {spans[1]}; both must cover the same months with the same observed cases"
            )
    return [(region_label(region), uni, multi) for region, uni, multi in pairs]


def build_comparison(reports: Sequence[ForecastReport]) -> list[tuple[str, str, str]]:
    """The six rows of the comparison table, in the canonical order: the
    region label and the univariate and multivariate RMSE (two decimals)."""
    return [(label, f"{uni.rmse:.2f}", f"{multi.rmse:.2f}") for label, uni, multi in _index_reports(reports)]


def render_comparison_text(rows: Sequence[tuple[str, str, str]]) -> str:
    """Aligned plain-text table; byte-stable for a fixed report set."""
    rows = [("Province", "Univariate LSTM", "Multivariate LSTM"), *rows]
    widths = [max(len(row[j]) for row in rows) for j in range(3)]
    return "".join(
        f"{row[0].ljust(widths[0])}  {row[1].rjust(widths[1])}  {row[2].rjust(widths[2])}\n"
        for row in rows
    )


def write_comparison_csv(rows: Sequence[tuple[str, str, str]], path) -> None:
    write_table(path, ["region", "univariate_rmse", "multivariate_rmse"], rows)


def _totals_rows(reports: Sequence[ForecastReport]) -> list[tuple[str, str, str, str]]:
    """(region label, observed, univariate and multivariate predicted totals)."""
    return [
        (label, f"{uni.observed_total:.2f}", f"{uni.predicted_total:.2f}", f"{multi.predicted_total:.2f}")
        for label, uni, multi in _index_reports(reports)
    ]


def render_totals_text(reports: Sequence[ForecastReport]) -> str:
    """Per-region horizon totals: observed next to each model's prediction."""
    lines = ["Cases over the forecast horizon"]
    for label, observed, uni, multi in _totals_rows(reports):
        lines.append(f"{label}: observed {observed}, univariate {uni}, multivariate {multi}")
    return "\n".join(lines) + "\n"


def write_totals_csv(reports: Sequence[ForecastReport], path) -> None:
    write_table(
        path,
        ["region", "observed_total", "univariate_total", "multivariate_total"],
        _totals_rows(reports),
    )


def emit_curves(report: ForecastReport, csv_path, svg_path) -> None:
    """Write the per-month curve data and render it as an SVG.

    The CSV keeps full float precision (repr) so re-ingesting reproduces the
    series exactly. The SVG holds exactly two polylines: observed then
    predicted.
    """
    write_table(
        csv_path,
        ["month", "observed", "predicted"],
        (
            [str(month), repr(float(obs)), repr(float(pred))]
            for month, obs, pred in zip(report.months, report.observed, report.predicted)
        ),
    )
    write_svg(report, svg_path)


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
    atomic_write(path, body)
