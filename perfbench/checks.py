"""Correctness checks and quality scores for one pipeline ``out_dir``.

Every check reads only the files the CLI writes, so it holds for any
implementation and any RNG stream: it never compares against numbers that a
particular generator would produce. Each check returns a list of violation
strings; an empty list means the run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# Burundi's five current provinces and their former members. The benchmark
# keeps its own copy so conservation is checked against the real map, not
# against whatever map the program happens to use.
REGION_GROUPS = {
    "Bujumbura": ("Bujumbura Mairie", "Bujumbura Rural", "Bubanza", "Cibitoke"),
    "Gitega": ("Gitega", "Mwaro", "Karuzi", "Muramvya"),
    "Buhumuza": ("Cankuzo", "Muyinga", "Ruyigi"),
    "Butanyerera": ("Kirundo", "Ngozi", "Kayanza"),
    "Burunga": ("Bururi", "Makamba", "Rumonge", "Rutana"),
}
COUNTRY = "Burundi"
REGIONS = ("Bujumbura", "Gitega", "Burunga", "Butanyerera", "Buhumuza", COUNTRY)
REPORT_LABELS = REGIONS[:-1] + ("Country level: Burundi",)
VARIANTS = ("univariate", "multivariate")
CLIMATE = ("temp_mean", "rainfall", "rel_humidity")


def read_rows(path) -> dict[tuple[str, int, int], dict[str, str]]:
    """Dataset CSV keyed by (province, year, month); cells kept as text."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = {}
        for row in csv.DictReader(fh):
            rows[(row["province"], int(row["year"]), int(row["month"]))] = row
    return rows


def _bits(cell: str) -> str:
    return float(cell).hex()


def check_completed(input_csv, completed_csv) -> list[str]:
    """Observed cells bit-identical, every gap filled with a finite value,
    population and cases untouched."""
    src, out = read_rows(input_csv), read_rows(completed_csv)
    if src.keys() != out.keys():
        return [f"completed.csv has {len(out)} rows for {len(src)} input rows"]
    problems = []
    for key, row in src.items():
        done = out[key]
        for col in CLIMATE:
            if row[col] == "":
                if done[col] == "" or not math.isfinite(float(done[col])):
                    problems.append(f"completed.csv {key} {col}: not filled ({done[col]!r})")
            elif done[col] == "" or _bits(done[col]) != _bits(row[col]):
                problems.append(f"completed.csv {key} {col}: observed {row[col]} became {done[col]!r}")
        for col in ("population", "cases"):
            if done[col] != row[col]:
                problems.append(f"completed.csv {key} {col}: {row[col]} became {done[col]}")
    return problems


def _sum_by_month(rows, provinces, col) -> dict[tuple[int, int], int]:
    totals: dict[tuple[int, int], int] = {}
    for (province, year, month), row in rows.items():
        if province in provinces:
            totals[(year, month)] = totals.get((year, month), 0) + int(row[col])
    return totals


def check_conservation(completed_csv, aggregated_csv, country_csv) -> list[str]:
    """Cases and population sum exactly: 18 -> 5 regions -> country."""
    old, new, country = read_rows(completed_csv), read_rows(aggregated_csv), read_rows(country_csv)
    problems = []
    if {p for p, _, _ in new} != set(REGION_GROUPS):
        problems.append(f"aggregated.csv regions {sorted({p for p, _, _ in new})}")
    if {p for p, _, _ in country} != {COUNTRY}:
        problems.append("country.csv does not hold exactly one Burundi series")
    for col in ("cases", "population"):
        everything = _sum_by_month(old, {p for p, _, _ in old}, col)
        for region, members in REGION_GROUPS.items():
            if _sum_by_month(old, set(members), col) != _sum_by_month(new, {region}, col):
                problems.append(f"aggregated.csv {region} {col} is not the sum of its members")
        if _sum_by_month(country, {COUNTRY}, col) != everything:
            problems.append(f"country.csv {col} is not the sum of all provinces")
    return problems


def check_report(report_txt) -> list[str]:
    """The comparison table holds the six region rows, each with two numbers."""
    table = Path(report_txt).read_text(encoding="utf-8").split("\n\n", 1)[0].splitlines()[1:]
    labels = []
    for line in table:
        label, *numbers = line.rsplit(None, 2)
        try:
            ok = len(numbers) == 2 and all(math.isfinite(float(x)) for x in numbers)
        except ValueError:
            ok = False
        if not ok:
            return [f"report.txt: malformed row {line!r}"]
        labels.append(label.strip())
    if tuple(labels) != REPORT_LABELS:
        return [f"report.txt rows {labels}, expected {list(REPORT_LABELS)}"]
    return []


def read_forecast(path) -> list[tuple[int, int, float, float]]:
    """(year, month, observed, predicted) rows of one forecast CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            (int(r["year"]), int(r["month"]), float(r["observed"]), float(r["predicted"]))
            for r in csv.DictReader(fh)
        ]


def check_forecasts(out_dir) -> list[str]:
    """All 12 region x variant forecasts exist and are finite and >= 0."""
    problems = []
    for region in REGIONS:
        for variant in VARIANTS:
            path = Path(out_dir) / "forecasts" / f"{region}_{variant}.csv"
            if not path.is_file():
                problems.append(f"missing {path.name}")
                continue
            rows = read_forecast(path)
            if not rows:
                problems.append(f"{path.name}: no forecast rows")
            bad = [r for r in rows if not (math.isfinite(r[3]) and r[3] >= 0.0)]
            if bad:
                problems.append(f"{path.name}: {len(bad)} forecasts not finite and >= 0")
    return problems


def tree_digest(out_dir) -> dict[str, str]:
    """SHA-256 of every file under ``out_dir``, keyed by relative path."""
    root = Path(out_dir)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_digests(reference: dict[str, str], digest: dict[str, str]) -> list[str]:
    differing = sorted(k for k in reference.keys() | digest.keys() if reference.get(k) != digest.get(k))
    return [f"out_dir differs from the first run with the same seed: {differing[:5]}"] if differing else []


def check_out_dir(input_csv, out_dir) -> list[str]:
    out = Path(out_dir)
    needed = ("completed.csv", "aggregated.csv", "country.csv", "report.txt")
    missing = [name for name in needed if not (out / name).is_file()]
    if missing:
        return [f"out_dir lacks {missing}"]
    try:
        return (
            check_completed(input_csv, out / "completed.csv")
            + check_conservation(out / "completed.csv", out / "aggregated.csv", out / "country.csv")
            + check_report(out / "report.txt")
            + check_forecasts(out)
        )
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _rmse(errors) -> float:
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def forecast_rmse_ratio(out_dir) -> float:
    """LSTM test RMSE over persistence RMSE (next month = this month's
    cases) on the same months, averaged over the 12 models."""
    out = Path(out_dir)
    cases: dict[tuple[str, int, int], int] = {}
    for name in ("aggregated.csv", "country.csv"):
        cases.update({key: int(row["cases"]) for key, row in read_rows(out / name).items()})
    ratios = []
    for region in REGIONS:
        for variant in VARIANTS:
            rows = read_forecast(out / "forecasts" / f"{region}_{variant}.csv")
            model, naive = [], []
            for year, month, observed, predicted in rows:
                prev = (year, month - 1) if month > 1 else (year - 1, 12)
                model.append(predicted - observed)
                naive.append(cases[(region, *prev)] - observed)
            ratios.append(_rmse(model) / _rmse(naive))
    return sum(ratios) / len(ratios)


def impute_nrmse(truth_csv, input_csv, completed_csv) -> float | None:
    """RMSE of the imputed cells against the truth over each column's std,
    averaged over the climate columns; None when nothing was masked."""
    truth, src, out = read_rows(truth_csv), read_rows(input_csv), read_rows(completed_csv)
    scores = []
    for col in CLIMATE:
        values = [float(row[col]) for row in truth.values()]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        errors = [float(out[k][col]) - float(truth[k][col]) for k, row in src.items() if row[col] == ""]
        if errors:
            scores.append(_rmse(errors) / std)
    return sum(scores) / len(scores) if scores else None
