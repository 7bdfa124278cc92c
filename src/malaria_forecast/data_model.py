"""Province-month series as arrays, CSV ingestion, and administrative aggregation.

A :class:`Dataset` holds P provinces, sorted by name, over T consecutive
months from ``start``:

- ``climate`` (P, T, 3) float64: temp_mean, rainfall and rel_humidity, with
  NaN for a missing cell (only climate may be missing);
- ``population`` and ``cases`` (P, T) int64.

The constructor, given at least one province and T >= 1 months, checks every
value and leaves the arrays read-only.
:func:`ingest_csv` keys each row by (province, month) and runs the same
checks first, so that an error names the file line; :func:`write_csv` writes
the arrays back byte for byte (``repr`` floats, an empty cell for NaN).

Files are opened here only: :func:`read_text` reads every input and
:func:`atomic_write` writes every artifact (a temp file that ``open`` creates
with O_EXCL, then a rename; UTF-8, no newline translation). Beside them,
:func:`read_table` reads every CSV input (dataset, map, forecast): it checks
the header and record widths and parses every cell by the kind its column
has in the one table ``_KINDS``; :func:`read_kv` reads every ``key = value``
input (config and model files). Their errors start ``<source> line <n>:``.
:func:`write_table` ends CSV rows in CRLF.

Burundi's 18 former provinces were regrouped into 5 (Bujumbura, Gitega,
Buhumuza, Butanyerera, Burunga). Aggregation sums the population and case
rows of each group's members and averages their climate rows; the same rules
collapse the 5 provinces into one country-level series. The member rows are
added in sorted order, one after the other (``x[idx].sum(axis=0)``, then
``/ len(idx)`` for climate), so the float result depends only on the numpy
build. A membership-matrix product would leave the order to BLAS, and
Python's built-in ``sum`` compensates its rounding from Python 3.12 on
(Neumaier), which would make the means depend on the Python version.
Every count, and every regional and national count sum (:func:`_sums` judges
them), is at most 2**53, so it is exact as a float64 in the windows; int64
sums of up to 1,024 members are exact. Every climate value is at most
:data:`MAX_MAGNITUDE` in size, so group sums and means are finite.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import CoverageError, DataError

COUNTRY_NAME = "Burundi"
CLIMATE_FIELDS = ("temp_mean", "rainfall", "rel_humidity")
MAX_COUNT = 2**53
# The largest magnitude B of a float in a dataset or forecast CSV (a climate
# value, a forecast). Every sum, mean, span and square taken of them is then
# finite: group sums and nanmean reach B·rows, min-max spans 2B, the forest's
# gains (2B·trees·rows)², and _delta's and the RMSE's squares rows·(2B)².
MAX_MAGNITUDE = 1e100
MAGNITUDE_RULE = "must be at most 1e100 in magnitude"

CSV_HEADER = ["province", "year", "month", *CLIMATE_FIELDS, "population", "cases"]
# Alternative ingest layout: raw min/max temperatures instead of the mean.
CSV_HEADER_MINMAX = [*CSV_HEADER[:3], "temp_min", "temp_max", *CSV_HEADER[4:]]


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


def _ordinal(year: int, month: int) -> int:
    return 12 * year + month - 1


def _month(ordinal: int) -> MonthKey:
    year, month = divmod(ordinal, 12)
    return MonthKey(year, month + 1)


# The five new provinces, in the order the report lists them, and their
# former members.
BURUNDI_REDISTRICTING_GROUPS = {
    "Bujumbura": ["Bujumbura Mairie", "Bujumbura Rural", "Bubanza", "Cibitoke"],
    "Gitega": ["Gitega", "Mwaro", "Karuzi", "Muramvya"],
    "Burunga": ["Bururi", "Makamba", "Rumonge", "Rutana"],
    "Butanyerera": ["Kirundo", "Ngozi", "Kayanza"],
    "Buhumuza": ["Cankuzo", "Muyinga", "Ruyigi"],
}

OLD_PROVINCES = sorted(
    old for members in BURUNDI_REDISTRICTING_GROUPS.values() for old in members
)


# Old province -> new province.
BURUNDI_REDISTRICTING = {
    old: new for new, members in BURUNDI_REDISTRICTING_GROUPS.items() for old in members
}


def _violations(climate, population, cases):
    """Yield ``(bad cells (P, T), values (P, T), rule)`` for each value rule."""
    for k, name in enumerate(CLIMATE_FIELDS):
        yield np.isinf(climate[..., k]), climate[..., k], f"{name} must be finite"
        yield np.abs(climate[..., k]) > MAX_MAGNITUDE, climate[..., k], f"{name} {MAGNITUDE_RULE}"
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
        if not all(self.provinces):
            raise DataError("province names must be non-empty")
        if any(a >= b for a, b in zip(self.provinces, self.provinces[1:])):
            raise DataError(f"provinces must be sorted and unique, got {self.provinces}")
        shape = (len(self.provinces), self.climate.shape[1])
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

    def months(self) -> list[MonthKey]:
        first = _ordinal(self.start.year, self.start.month)
        return [_month(first + t) for t in range(self.cases.shape[1])]

    def row(self, province: str) -> int:
        """Index of ``province``; DataError when the dataset does not have it."""
        try:
            return self.provinces.index(province)
        except ValueError:
            raise DataError(
                f"region {province!r} not in dataset (has {self.provinces})"
            ) from None


# The kind (see _parse_cell) of each column of the dataset, map and forecast
# CSVs; every other column holds climate values.
_KINDS = {
    "province": "text", "year": "int", "month": "month", "population": "int", "cases": "int",
    "old_province": "text", "new_province": "text", "variant": "text", "observed": "float", "predicted": "float",
}


def _parse_cell(raw: str, kind: str, column: str, source, line_no: int):
    """The cell ``raw`` of ``column``, surrounding whitespace ignored, as
    ``kind``: non-empty ``"text"``, an ``"int"`` (64-bit), a ``"month"``
    (1..12), a ``"float"`` of magnitude at most :data:`MAX_MAGNITUDE`, or
    such a ``"climate"`` float where an empty cell gives NaN."""
    rule = None
    try:
        if kind == "climate" or kind == "float":
            value = float(raw)
            if abs(value) <= MAX_MAGNITUDE:
                return value
            rule = MAGNITUDE_RULE if math.isfinite(value) else "must be finite"
        elif kind == "text":
            if raw.strip():
                return raw.strip()
        else:
            value = int(raw)
            if kind == "int" and -(2**63) <= value < 2**63 or kind == "month" and 1 <= value <= 12:
                return value
            rule = "does not fit in 64 bits" if kind == "int" else "must be in 1..12"
    except ValueError:
        if raw.strip():
            raise DataError(f"{source} line {line_no}: malformed {column} cell {raw!r}") from None
    if rule:
        raise DataError(f"{source} line {line_no}: {column} {rule}, got {raw!r}")
    if kind == "climate":
        return math.nan
    raise DataError(f"{source} line {line_no}: empty {column} cell")


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
    """Write ``text`` as UTF-8, untranslated, to ``.<name>.<16 random hex>.tmp``
    beside ``path``, which ``open`` creates with O_EXCL and the mode it gives
    any new file, then rename it over ``path``. If the write or the rename
    fails, the target is unchanged and the temp file removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
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


def read_table(path, *headers):
    """Yield ``(line number, values)`` for each non-blank record of the CSV
    file at ``path`` after its header, each cell parsed by the kind of its
    column (:data:`_KINDS`). The header, cells stripped, must be one of
    ``headers``. Each fault (an unknown header, a record not as wide as the
    header, a bad cell, an unclosed quote, a field over the csv module's
    size limit) raises DataError starting ``<path> line <n>:``, and a file
    without data rows raises it naming ``<path>``; bytes that are not UTF-8
    raise it from :func:`read_text`."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    records = ((reader.line_num, row) for row in reader if row)
    try:
        line_no, header = next(records, (1, []))
        header = [cell.strip() for cell in header]
        if header not in headers:
            raise DataError(f"{path} line {line_no}: unrecognized header {header!r}")
        kinds = [_KINDS.get(name, "climate") for name in header]
        line_no = None
        for line_no, row in records:
            if len(row) != len(header):
                raise DataError(f"{path} line {line_no}: expected {len(header)} cells, got {len(row)}")
            yield line_no, [*map(_parse_cell, row, kinds, header, repeat(path), repeat(line_no))]
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    if line_no is None:
        raise DataError(f"{path}: no data rows")


def read_kv(path, error):
    """Yield ``(line number, key, value)`` for each line of a ``key = value``
    file, in file order, key and value stripped; blank and ``#`` lines are
    skipped. A line without ``=``, or an empty or repeated key, raises
    ``error`` starting ``<path> line <n>:``."""
    seen = set()
    for line_no, raw in enumerate(read_text(path, error).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path} line {line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key or key in seen:
            raise error(f"{path} line {line_no}: bad or duplicate key {key!r}")
        seen.add(key)
        yield line_no, key, value.strip()


def ingest_csv(path) -> Dataset:
    """Read the monthly dataset CSV at ``path``.

    Accepts the ``temp_mean`` header or the ``temp_min,temp_max`` variant (the
    two are averaged), rows in any order, and an empty climate cell as missing.
    Each province needs one row per month, without gaps, over the first
    province's month range. The first fault raises DataError naming the path
    and line: a bad cell or a repeated (province, month) as read, then a month
    gap, then a range (at its first month), then a value rule (its lowest line).
    """
    records = read_table(path, CSV_HEADER, CSV_HEADER_MINMAX)
    # (province, month ordinal) -> (line, climate triple, population, cases)
    rows: dict[tuple[str, int], tuple] = {}
    for line_no, (province, year, month, *climate, population, cases) in records:
        if len(climate) == 4:
            tmin, tmax, *climate = climate
            if math.isnan(tmin) != math.isnan(tmax):
                raise DataError(
                    f"{path} line {line_no}: temp_min and temp_max must be both present or both empty"
                )
            climate.insert(0, (tmin + tmax) / 2.0)
        key = (province, _ordinal(year, month))
        if key in rows:
            raise DataError(
                f"{path} line {line_no}: duplicate row for {province} {_month(key[1])} "
                f"(first on line {rows[key][0]})"
            )
        rows[key] = (line_no, climate, population, cases)
    keys = sorted(rows)
    spans = {}  # province -> (first, last month ordinal), provinces sorted
    for (before, prev), (province, cur) in zip([(None, None), *keys], keys):
        if province == before and cur != prev + 1:
            raise DataError(
                f"{path} line {rows[province, cur][0]}: month gap for province {province} between "
                f"{_month(prev)} and {_month(cur)}"
            )
        spans[province] = (spans[province][0] if province == before else cur, cur)
    provinces, axis = list(spans), spans[keys[0][0]]
    for province, (first, last) in spans.items():
        if (first, last) != axis:
            raise DataError(
                f"{path} line {rows[province, first][0]}: provinces cover different month ranges: "
                f"{province} {_month(first)}..{_month(last)}, {provinces[0]} {_month(axis[0])}..{_month(axis[1])}"
            )

    lines, climate, population, cases = (
        np.array(column, dtype=dtype).reshape(len(provinces), -1, *np.shape(column[0]))
        for column, dtype in zip(zip(*map(rows.get, keys)), (np.int64, np.float64, np.int64, np.int64))
    )
    for bad, values, rule in _violations(climate, population, cases):
        if bad.any():
            line_no = lines[bad].min()
            raise DataError(f"{path} line {line_no}: {rule}, got {values[lines == line_no][0]}")
    return Dataset(provinces, _month(axis[0]), climate, population, cases)


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


def read_map_csv(path) -> dict[str, str]:
    """Read a two-column ``old_province,new_province`` file into an old -> new dict."""
    mapping: dict[str, str] = {}
    for line_no, (old, new) in read_table(path, ["old_province", "new_province"]):
        if old in mapping:
            raise DataError(f"{path} line {line_no}: duplicate old province {old!r}")
        mapping[old] = new
    return mapping


def _sums(dataset: Dataset, names: list[str], groups: list[list[int]]) -> list[np.ndarray]:
    """``dataset``'s population and cases summed over each group's member
    rows, added in the given order. DataError for the first sum that breaks a
    count rule of :func:`_violations`, population before cases."""
    sums = [np.array([array[idx].sum(axis=0) for idx in groups]) for array in (dataset.population, dataset.cases)]
    # Zero climate passes every climate rule, so only the count rules judge.
    for bad, values, rule in _violations(np.zeros((*sums[0].shape, 3)), *sums):
        if bad.any():
            g, t = np.argwhere(bad)[0]
            raise DataError(f"{names[g]} {dataset.months()[t]}: {rule}, got {values[g, t]}, a sum of member provinces")
    return sums


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
        *_sums(dataset, names, groups),
    )


def _groups(provinces: list[str], redistricting: Mapping[str, str]) -> tuple[list[str], list[list[int]]]:
    """The new provinces of ``redistricting`` (old -> new), sorted, and the
    rows in ``provinces`` of each one's members, sorted by name. DataError for
    the first of ``provinces`` that ``redistricting`` does not map;
    CoverageError for the first mapped province that ``provinces`` lacks."""
    for province in provinces:
        if province not in redistricting:
            raise DataError(f"province {province!r} is not in the redistricting map")
    rows = {name: p for p, name in enumerate(provinces)}
    for old in redistricting:
        if old not in rows:
            raise CoverageError(f"dataset is missing mapped province {old!r}")
    names = sorted(set(redistricting.values()))
    return names, [[rows[old] for old in sorted(redistricting) if redistricting[old] == name] for name in names]


def check_regrouping(dataset: Dataset, redistricting: Mapping[str, str]) -> None:
    """Raise the first error of :func:`aggregate_provinces` and then
    :func:`to_country_level` run on ``dataset``'s counts with zero climate: an
    unmapped province, a missing mapped province, then a regional, then a
    national count sum that breaks a count rule."""
    zero = np.zeros((*dataset.cases.shape, 3))
    counts = Dataset(dataset.provinces, dataset.start, zero, dataset.population, dataset.cases)
    to_country_level(aggregate_provinces(counts, redistricting))


def aggregate_provinces(dataset: Dataset, redistricting: Mapping[str, str]) -> Dataset:
    """Regroup old provinces into the new scheme (``redistricting`` maps old -> new).

    Climate fields average over member provinces; population and cases sum.
    Members are combined in sorted order, so the result is exactly invariant
    to the ordering of the input mapping.
    """
    return _regroup(dataset, *_groups(dataset.provinces, redistricting))


def to_country_level(dataset: Dataset) -> Dataset:
    """Collapse province series into one national series (same combine rules)."""
    return _regroup(dataset, [COUNTRY_NAME], [list(range(len(dataset.provinces)))])
