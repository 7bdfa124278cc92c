"""Province-month series as arrays, CSV ingestion, and administrative aggregation.

A :class:`Dataset` holds P provinces, sorted by name, over T consecutive
months from ``start``:

- ``climate`` (P, T, 3) float64: temp_mean, rainfall and rel_humidity, with
  NaN for a missing cell (only climate may be missing);
- ``population`` and ``cases`` (P, T) int64.

The constructor is the one place that checks values, and the arrays are
read-only afterwards. :func:`ingest_csv` parses straight into the arrays and
:func:`write_csv` writes them back byte for byte (``repr`` floats, an empty
cell for NaN).

Files are opened here only: :func:`read_text` reads every input and
:func:`atomic_write` writes every artifact (temp file + rename, UTF-8, no
newline translation); :func:`write_table` ends CSV rows in CRLF.

Burundi's 18 former provinces were regrouped into 5 (Bujumbura, Gitega,
Buhumuza, Butanyerera, Burunga). Aggregation sums the population and case
rows of each group's members and averages their climate rows; the same rules
collapse the 5 provinces into one country-level series. The member rows are
added in sorted order, one after the other (``x[idx].sum(axis=0)``, then
``/ len(idx)`` for climate), so the float result depends only on the numpy
build. A membership-matrix product would leave the order to BLAS, and
Python's built-in ``sum`` compensates its rounding from Python 3.12 on
(Neumaier), which would make the means depend on the Python version.
Every count is at most 2**53, so it is exact as a float64 in the windows,
and the int64 sums of up to 1,024 members are exact too.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import CoverageError, DataError

__all__ = [
    "MonthKey",
    "RedistrictingMap",
    "Dataset",
    "BURUNDI_REDISTRICTING",
    "OLD_PROVINCES",
    "NEW_PROVINCES",
    "COUNTRY_NAME",
    "ingest_csv",
    "write_csv",
    "read_csv",
    "read_text",
    "atomic_write",
    "write_table",
    "read_map_csv",
    "aggregate_provinces",
    "to_country_level",
]

COUNTRY_NAME = "Burundi"
CLIMATE_FIELDS = ("temp_mean", "rainfall", "rel_humidity")
MAX_COUNT = 2**53

CSV_HEADER = ["province", "year", "month", *CLIMATE_FIELDS, "population", "cases"]
# Alternative ingest layout: raw min/max temperatures instead of the mean.
CSV_HEADER_MINMAX = [
    "province",
    "year",
    "month",
    "temp_min",
    "temp_max",
    "rainfall",
    "rel_humidity",
    "population",
    "cases",
]


@dataclass(frozen=True, order=True)
class MonthKey:
    """A calendar month; totally ordered, with gap detection via ``next``."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise DataError(f"month must be in 1..12, got {self.month}")

    def next(self) -> "MonthKey":
        if self.month == 12:
            return MonthKey(self.year + 1, 1)
        return MonthKey(self.year, self.month + 1)

    def __str__(self):
        return f"{self.year:04d}-{self.month:02d}"


def _ordinal(month: MonthKey) -> int:
    return 12 * month.year + month.month - 1


def _month(ordinal: int) -> MonthKey:
    year, month = divmod(ordinal, 12)
    return MonthKey(year, month + 1)


# The five new provinces and their former members.
BURUNDI_REDISTRICTING_GROUPS = {
    "Bujumbura": ["Bujumbura Mairie", "Bujumbura Rural", "Bubanza", "Cibitoke"],
    "Gitega": ["Gitega", "Mwaro", "Karuzi", "Muramvya"],
    "Buhumuza": ["Cankuzo", "Muyinga", "Ruyigi"],
    "Butanyerera": ["Kirundo", "Ngozi", "Kayanza"],
    "Burunga": ["Bururi", "Makamba", "Rumonge", "Rutana"],
}

NEW_PROVINCES = sorted(BURUNDI_REDISTRICTING_GROUPS)
OLD_PROVINCES = sorted(
    old for members in BURUNDI_REDISTRICTING_GROUPS.values() for old in members
)


class RedistrictingMap:
    """Total mapping from old provinces onto a smaller set of new provinces."""

    def __init__(self, mapping: Mapping[str, str]):
        if not mapping:
            raise DataError("redistricting map must not be empty")
        self.mapping = dict(mapping)

    def new_provinces(self) -> list[str]:
        return sorted(set(self.mapping.values()))

    def members(self, new_province: str) -> list[str]:
        return sorted(old for old, new in self.mapping.items() if new == new_province)

    def __contains__(self, old_province: str) -> bool:
        return old_province in self.mapping


BURUNDI_REDISTRICTING = RedistrictingMap(
    {old: new for new, members in BURUNDI_REDISTRICTING_GROUPS.items() for old in members}
)


def _violations(climate, population, cases):
    """Yield ``(bad cells (P, T), values (P, T), rule)`` for each value rule."""
    for k, name in enumerate(CLIMATE_FIELDS):
        yield np.isinf(climate[..., k]), climate[..., k], f"{name} must be finite"
    humidity = climate[..., 2]
    yield (humidity < 0.0) | (humidity > 100.0), humidity, "rel_humidity out of range [0, 100]"
    for name, counts, rule, bad in (
        ("population", population, "> 0", population <= 0),
        ("cases", cases, ">= 0", cases < 0),
    ):
        yield bad, counts, f"{name} must be {rule}"
        yield counts > MAX_COUNT, counts, f"{name} must be <= 2**53"


class Dataset:
    """Province series sharing one month axis, as arrays (see the module
    docstring for the layout). A province's row is its index in
    ``provinces``; month ``t`` is ``t`` months after ``start``."""

    def __init__(self, provinces, start: MonthKey, climate, population, cases):
        self.provinces = list(provinces)
        self.start = start
        self.climate = np.array(climate, dtype=np.float64)
        self.population = np.array(population)
        self.cases = np.array(cases)
        if not self.provinces:
            raise DataError("dataset must contain at least one province")
        if not all(self.provinces):
            raise DataError("province names must be non-empty")
        if any(a >= b for a, b in zip(self.provinces, self.provinces[1:])):
            raise DataError(f"provinces must be sorted and unique, got {self.provinces}")
        shape = (len(self.provinces), self.climate.shape[1] if self.climate.ndim == 3 else 0)
        if self.climate.shape != (*shape, 3) or shape[1] == 0:
            raise DataError(
                f"climate must have shape {(*shape, 3)} with months > 0, got {self.climate.shape}"
            )
        for name in ("population", "cases"):
            counts = getattr(self, name)
            if counts.shape != shape or counts.dtype != np.int64:
                raise DataError(
                    f"{name} must be int64 of shape {shape}, got {counts.dtype} {counts.shape}"
                )
        for bad, values, rule in _violations(self.climate, self.population, self.cases):
            if bad.any():
                p, t = np.argwhere(bad)[0]
                raise DataError(
                    f"{self.provinces[p]} {self.months()[t]}: {rule}, got {values[p, t]}"
                )
        for array in (self.climate, self.population, self.cases):
            array.flags.writeable = False

    def __reduce__(self):
        # Rebuilt by the constructor, so an unpickled copy is checked and
        # read-only too. (Pool workers inherit their datasets by fork.)
        return Dataset, (self.provinces, self.start, self.climate, self.population, self.cases)

    def months(self) -> list[MonthKey]:
        first = _ordinal(self.start)
        return [_month(first + t) for t in range(self.cases.shape[1])]

    def row(self, province: str) -> int:
        """Index of ``province``; DataError when the dataset does not have it."""
        try:
            return self.provinces.index(province)
        except ValueError:
            raise DataError(
                f"region {province!r} not in dataset (has {self.provinces})"
            ) from None


def _parse_cell(raw: str, kind: str, column: str, line_no: int):
    """An int, or a finite float where an empty climate cell gives NaN."""
    raw = raw.strip()
    if raw == "":
        if kind == "climate":
            return math.nan
        raise DataError(f"line {line_no}: empty {column} cell")
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise DataError(f"line {line_no}: malformed {column} cell {raw!r}") from None
    if kind == "int" and not -(2**63) <= value < 2**63:
        raise DataError(f"line {line_no}: {column} {raw} does not fit in 64 bits")
    if kind == "climate" and not math.isfinite(value):
        raise DataError(f"line {line_no}: {column} must be finite, got {raw!r}")
    return value


def _parse_row(row: list[str], line_no: int, minmax: bool) -> tuple[str, int, tuple]:
    """(province, month ordinal, (line, climate triple, population, cases))."""
    width = len(CSV_HEADER_MINMAX if minmax else CSV_HEADER)
    if len(row) != width:
        raise DataError(f"line {line_no}: expected {width} cells, got {len(row)}")
    province = row[0].strip()
    if not province:
        raise DataError(f"line {line_no}: empty province cell")
    year = _parse_cell(row[1], "int", "year", line_no)
    month = _parse_cell(row[2], "int", "month", line_no)
    if minmax:
        tmin = _parse_cell(row[3], "climate", "temp_min", line_no)
        tmax = _parse_cell(row[4], "climate", "temp_max", line_no)
        if math.isnan(tmin) != math.isnan(tmax):
            raise DataError(
                f"line {line_no}: temp_min and temp_max must be both present or both empty"
            )
        temp = (tmin + tmax) / 2.0
        rest = row[5:]
    else:
        temp = _parse_cell(row[3], "climate", "temp_mean", line_no)
        rest = row[4:]
    climate = (
        temp,
        _parse_cell(rest[0], "climate", "rainfall", line_no),
        _parse_cell(rest[1], "climate", "rel_humidity", line_no),
    )
    population = _parse_cell(rest[2], "int", "population", line_no)
    cases = _parse_cell(rest[3], "int", "cases", line_no)
    try:
        ordinal = _ordinal(MonthKey(year, month))
    except DataError as exc:
        raise DataError(f"line {line_no}: {exc}") from None
    return province, ordinal, (line_no, climate, population, cases)


def read_text(path, error=DataError) -> str:
    """The file at ``path`` decoded as UTF-8. Other bytes raise ``error``
    naming the path and the number of whole lines before them."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        good_lines = raw.count(b"\n", 0, exc.start)
        raise error(f"{path}: not UTF-8 after line {good_lines}: {exc.reason}") from None


def atomic_write(path, text: str) -> None:
    """Write ``text`` as UTF-8, untranslated, to a new uniquely named file
    beside ``path`` with the mode ``open`` would give, then rename it over
    ``path``. On failure the target is unchanged and the temp file removed."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp makes the file private
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CRLF-ended CSV records by :func:`atomic_write`."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, text.getvalue())


def read_csv(source):
    """Yield ``(line number, cells)`` for each record of a CSV path or open
    text stream, the header included. Bytes that are not UTF-8 and csv-level
    faults (an unclosed quote, a field over the csv module's size limit)
    raise DataError with the path and line."""
    text = source.read() if hasattr(source, "read") else read_text(source)
    reader = csv.reader(io.StringIO(text, newline=""))
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"{source} line {reader.line_num}: {exc}") from None
        yield reader.line_num, row


def ingest_csv(source) -> Dataset:
    """Read a monthly dataset CSV from a path or an open text stream.

    Accepts either the ``temp_mean`` header or the ``temp_min,temp_max``
    variant (the two are averaged). Rows may come in any order. Empty climate
    cells become missing values; ``nan`` and ``inf`` are refused. Each
    province needs one row per month, without gaps, over the same month range
    as every other. Errors carry the offending 1-based file line number.
    """
    records = read_csv(source)
    header = [h.strip() for h in next(records, (0, []))[1]]
    if header not in (CSV_HEADER, CSV_HEADER_MINMAX):
        raise DataError(f"{source}: unrecognized header {header!r}")
    # province -> month ordinal -> (line, climate triple, population, cases)
    rows: dict[str, dict[int, tuple]] = {}
    for line_no, row in records:
        if not row:
            continue
        province, ordinal, cell = _parse_row(row, line_no, header == CSV_HEADER_MINMAX)
        cells = rows.setdefault(province, {})
        if ordinal in cells:
            raise DataError(
                f"line {line_no}: duplicate row for {province} {_month(ordinal)} "
                f"(first on line {cells[ordinal][0]})"
            )
        cells[ordinal] = cell
    if not rows:
        raise DataError(f"{source}: no data rows")
    return _to_dataset(rows)


def _to_dataset(rows: dict[str, dict[int, tuple]]) -> Dataset:
    """Check the month axes, then build the arrays; errors name the line."""
    provinces = sorted(rows)
    series = [sorted(rows[p].items()) for p in provinces]
    for province, cells in zip(provinces, series):
        for (prev, _), (cur, (line_no, *_)) in zip(cells, cells[1:]):
            if cur != prev + 1:
                raise DataError(
                    f"line {line_no}: month gap for province {province} between "
                    f"{_month(prev)} and {_month(cur)}"
                )
    first, last = series[0][0][0], series[0][-1][0]
    for province, cells in zip(provinces, series):
        if (cells[0][0], cells[-1][0]) != (first, last):
            raise DataError(
                f"line {cells[0][1][0]}: provinces cover different month ranges: "
                f"{province} {_month(cells[0][0])}..{_month(cells[-1][0])}, "
                f"{provinces[0]} {_month(first)}..{_month(last)}"
            )

    lines, climate, population, cases = (
        np.array([[cell[k] for _, cell in cells] for cells in series], dtype=dtype)
        for k, dtype in enumerate((np.int64, np.float64, np.int64, np.int64))
    )
    for bad, values, rule in _violations(climate, population, cases):
        if bad.any():
            line_no = lines[bad].min()
            raise DataError(f"line {line_no}: {rule}, got {values[lines == line_no][0]}")
    return Dataset(provinces, _month(first), climate, population, cases)


def _fmt_climate(value: float) -> str:
    return "" if math.isnan(value) else repr(value)


def write_csv(dataset: Dataset, path) -> None:
    """Emit a dataset in the canonical CSV layout, provinces sorted."""
    months = dataset.months()
    write_table(
        path,
        CSV_HEADER,
        (
            [province, month.year, month.month, *map(_fmt_climate, climate), population, cases]
            for p, province in enumerate(dataset.provinces)
            for month, climate, population, cases in zip(
                months,
                dataset.climate[p].tolist(),
                dataset.population[p].tolist(),
                dataset.cases[p].tolist(),
            )
        ),
    )


def read_map_csv(path) -> RedistrictingMap:
    """Read a two-column ``old_province,new_province`` mapping."""
    mapping: dict[str, str] = {}
    records = read_csv(path)
    header = [h.strip() for h in next(records, (0, []))[1]]
    if header != ["old_province", "new_province"]:
        raise DataError(f"{path}: unrecognized map header {header!r}")
    for line_no, row in records:
        if not row:
            continue
        if len(row) != 2 or not row[0].strip() or not row[1].strip():
            raise DataError(f"line {line_no}: malformed map row {row!r}")
        old = row[0].strip()
        if old in mapping:
            raise DataError(f"line {line_no}: duplicate old province {old!r}")
        mapping[old] = row[1].strip()
    return RedistrictingMap(mapping)


def _regroup(dataset: Dataset, names: list[str], groups: list[list[int]]) -> Dataset:
    """One row per group: the member rows' climate mean and count sums, the
    members added in the given order."""
    missing = np.isnan(dataset.climate).any(axis=2)
    if missing.any():
        p, t = np.argwhere(missing)[0]
        raise DataError(
            f"missing climate value for {dataset.provinces[p]} at {dataset.months()[t]}; "
            "run imputation before aggregating"
        )
    return Dataset(
        names,
        dataset.start,
        [dataset.climate[idx].sum(axis=0) / len(idx) for idx in groups],
        np.array([dataset.population[idx].sum(axis=0) for idx in groups]),
        np.array([dataset.cases[idx].sum(axis=0) for idx in groups]),
    )


def aggregate_provinces(dataset: Dataset, redistricting: RedistrictingMap) -> Dataset:
    """Regroup old provinces into the new scheme.

    Climate fields average over member provinces; population and cases sum.
    Members are combined in sorted order, so the result is exactly invariant
    to the ordering of the input mapping.
    """
    for province in dataset.provinces:
        if province not in redistricting:
            raise DataError(f"province {province!r} is not in the redistricting map")
    rows = {name: p for p, name in enumerate(dataset.provinces)}
    for old in redistricting.mapping:
        if old not in rows:
            raise CoverageError(f"dataset is missing mapped province {old!r}")
    names = redistricting.new_provinces()
    return _regroup(
        dataset, names, [[rows[m] for m in redistricting.members(name)] for name in names]
    )


def to_country_level(dataset: Dataset) -> Dataset:
    """Collapse province series into one national series (same combine rules)."""
    return _regroup(dataset, [COUNTRY_NAME], [list(range(len(dataset.provinces)))])
