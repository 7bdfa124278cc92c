import csv
import io
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_series, same_dataset, with_cell
from malaria_forecast.data_model import (
    BURUNDI_REDISTRICTING,
    BURUNDI_REDISTRICTING_GROUPS,
    COUNTRY_NAME,
    NEW_PROVINCES,
    OLD_PROVINCES,
    Dataset,
    MonthKey,
    RedistrictingMap,
    aggregate_provinces,
    ingest_csv,
    read_map_csv,
    to_country_level,
    write_csv,
)
from malaria_forecast.errors import CoverageError, DataError


class TestMonthKey:
    def test_ordering(self):
        assert MonthKey(2010, 1) < MonthKey(2010, 2) < MonthKey(2011, 1)

    def test_next_rollover(self):
        assert MonthKey(2010, 12).next() == MonthKey(2011, 1)
        assert MonthKey(2010, 3).next() == MonthKey(2010, 4)

    def test_invalid_month(self):
        with pytest.raises(DataError):
            MonthKey(2010, 13)

    def test_str(self):
        assert str(MonthKey(2010, 3)) == "2010-03"


class TestMonthlyRecord:
    """The value rules every province-month cell meets, checked by the
    Dataset constructor."""

    def test_rejects_nonpositive_population(self):
        with pytest.raises(DataError, match="A 2010-02: population must be > 0, got 0"):
            with_cell(make_series("A", 3), "A", 1, population=0)

    def test_rejects_negative_cases(self):
        with pytest.raises(DataError, match="cases must be >= 0, got -1"):
            with_cell(make_series("A", 3), "A", 1, cases=-1)

    def test_rejects_humidity_out_of_range(self):
        with pytest.raises(DataError, match="rel_humidity out of range"):
            with_cell(make_series("A", 3), "A", 1, rel_humidity=101.0)

    def test_climate_may_be_missing(self):
        ds = with_cell(make_series("A", 3), "A", 1, temp_mean=None, rainfall=None, rel_humidity=None)
        assert np.isnan(ds.climate).any()
        assert np.isnan(ds.climate[0, 1]).all()

    def test_rejects_infinite_climate(self):
        with pytest.raises(DataError, match="rainfall must be finite"):
            with_cell(make_series("A", 3), "A", 1, rainfall=np.inf)

    def test_rejects_counts_above_2_53(self):
        with_cell(make_series("A", 3), "A", 1, cases=2**53)
        with pytest.raises(DataError, match="cases must be <= 2"):
            with_cell(make_series("A", 3), "A", 1, cases=2**53 + 1)
        with pytest.raises(DataError, match="population must be <= 2"):
            with_cell(make_series("A", 3), "A", 1, population=2**53 + 1)


class TestDatasetInvariants:
    def test_detects_month_gap(self):
        # Arrays have no gaps by construction: each array must span the
        # same month axis.
        ds = make_series("A", 3)
        with pytest.raises(DataError, match="population must be int64 of shape"):
            Dataset(ds.provinces, ds.start, ds.climate, ds.population[:, :2], ds.cases)

    def test_detects_mismatched_ranges(self, tmp_path):
        rows = [["A", 2010, m, 20.0, 90.0, 70.0, 1000, 5] for m in (1, 2, 3)]
        rows += [["B", 2010, m, 20.0, 90.0, 70.0, 1000, 5] for m in (1, 2, 3, 4)]
        path = tmp_path / "ranges.csv"
        write_rows(path, HEADER, rows)
        with pytest.raises(DataError, match="line 5: provinces cover different month ranges"):
            ingest_csv(path)

    def test_requires_sorted_unique_provinces(self):
        ds = make_series("A", 3)
        two = np.concatenate([ds.climate, ds.climate])
        counts = np.concatenate([ds.cases, ds.cases])
        for names in (["B", "A"], ["A", "A"], ["", "B"]):
            with pytest.raises(DataError):
                Dataset(names, ds.start, two, counts, counts)

    def test_arrays_are_read_only(self):
        ds = make_series("A", 3)
        with pytest.raises(ValueError):
            ds.cases[0, 0] = 1

    def test_pickled_copy_is_equal_and_read_only(self):
        # The pipeline pickles no dataset (its workers inherit them by fork),
        # but any other caller may.
        ds = with_cell(make_series("A", 3), "A", 1, rainfall=None)
        copy = pickle.loads(pickle.dumps(ds))
        assert same_dataset(copy, ds)
        for array in (copy.climate, copy.population, copy.cases):
            assert not array.flags.writeable


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


HEADER = "province,year,month,temp_mean,rainfall,rel_humidity,population,cases".split(",")


class TestIngest:
    def test_well_formed_two_provinces(self, tmp_path):
        rows = []
        for name in ("Alpha", "Beta"):
            for month in (1, 2, 3):
                rows.append([name, 2010, month, 20.5, 100.0, 70.0, 1000, 10])
        path = tmp_path / "data.csv"
        write_rows(path, HEADER, rows)
        ds = ingest_csv(path)
        assert ds.cases.shape == (2, 3)
        assert ds.climate.shape == (2, 3, 3)
        assert ds.provinces == ["Alpha", "Beta"]

    def test_rows_in_any_order(self, tmp_path):
        rows = [["Beta", 2010, 2, 21.0, 90.0, 70.0, 1000, 4], ["Alpha", 2010, 2, 20.0, 90.0, 70.0, 1000, 2],
                ["Beta", 2010, 1, 21.0, 90.0, 70.0, 1000, 3], ["Alpha", 2010, 1, 20.0, 90.0, 70.0, 1000, 1]]
        path = tmp_path / "shuffled.csv"
        write_rows(path, HEADER, rows)
        ds = ingest_csv(path)
        assert ds.start == MonthKey(2010, 1)
        assert ds.cases.tolist() == [[1, 2], [3, 4]]

    def test_month_gap_names_province(self, tmp_path):
        rows = [
            ["Alpha", 2010, 1, 20.0, 90.0, 70.0, 1000, 5],
            ["Alpha", 2010, 3, 20.0, 90.0, 70.0, 1000, 5],
        ]
        path = tmp_path / "gap.csv"
        write_rows(path, HEADER, rows)
        with pytest.raises(DataError, match="line 3: month gap.*Alpha"):
            ingest_csv(path)

    def test_duplicate_month_names_both_lines(self, tmp_path):
        rows = [["Alpha", 2010, 1, 20.0, 90.0, 70.0, 1000, 5]] * 2
        path = tmp_path / "dup.csv"
        write_rows(path, HEADER, rows)
        with pytest.raises(DataError, match="line 3: duplicate row for Alpha 2010-01 .first on line 2"):
            ingest_csv(path)

    def test_empty_rainfall_becomes_missing(self, tmp_path):
        path = tmp_path / "missing.csv"
        write_rows(path, HEADER, [["Alpha", 2010, 1, 20.0, "", 70.0, 1000, 5]])
        ds = ingest_csv(path)
        assert np.isnan(ds.climate[0, 0, 1])
        assert ds.climate[0, 0, 0] == 20.0

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "1e400"])
    def test_non_finite_climate_text_refused(self, tmp_path, token):
        path = tmp_path / "nan.csv"
        write_rows(path, HEADER, [["Alpha", 2010, 1, 20.0, 90.0, 70.0, 1000, 5],
                                  ["Alpha", 2010, 2, 20.0, token, 70.0, 1000, 5]])
        with pytest.raises(DataError, match="line 3: rainfall must be finite"):
            ingest_csv(path)

    @pytest.mark.parametrize("count", [2**53 + 1, 10**20, -(10**20)])
    def test_huge_counts_are_data_errors(self, tmp_path, count):
        path = tmp_path / "huge.csv"
        write_rows(path, HEADER, [["Alpha", 2010, 1, 20.0, 90.0, 70.0, 1000, 5],
                                  ["Alpha", 2010, 2, 20.0, 90.0, 70.0, 1000, count]])
        with pytest.raises(DataError, match="line 3: cases"):
            ingest_csv(path)

    def test_csv_level_error_names_the_line(self, tmp_path):
        path = tmp_path / "long.csv"
        write_rows(path, HEADER, [["Alpha", 2010, 1, 20.0, 90.0, 70.0, 1000, 5],
                                  ["Alpha", 2010, 2, "9" * 200_000, 90.0, 70.0, 1000, 5]])
        with pytest.raises(DataError, match="line 3: field larger than field limit"):
            ingest_csv(path)

    def test_non_utf8_bytes_are_a_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(",".join(HEADER).encode() + b"\nAlpha,2010,1,20.0,90.0,70.0,1000,5\nK\xe9,2010,1,20.0,90.0,70.0,1000,5\n")
        with pytest.raises(DataError, match="not UTF-8 after line"):
            ingest_csv(path)

    def test_min_max_temperature_is_averaged(self, tmp_path):
        header = "province,year,month,temp_min,temp_max,rainfall,rel_humidity,population,cases".split(",")
        path = tmp_path / "minmax.csv"
        write_rows(path, header, [["Alpha", 2010, 1, 15.0, 25.0, 90.0, 70.0, 1000, 5]])
        ds = ingest_csv(path)
        assert ds.climate[0, 0, 0] == 20.0

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(
            path,
            HEADER,
            [
                ["Alpha", 2010, 1, 20.0, 90.0, 70.0, 1000, 5],
                ["Alpha", 2010, 2, "oops", 90.0, 70.0, 1000, 5],
            ],
        )
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(path)

    def test_negative_cases_reports_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        write_rows(path, HEADER, [["Alpha", 2010, 1, 20.0, 90.0, 70.0, 1000, -2]])
        with pytest.raises(DataError, match="line 2"):
            ingest_csv(path)

    def test_unrecognized_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        write_rows(path, ["province", "cases"], [["Alpha", 1]])
        with pytest.raises(DataError, match="header"):
            ingest_csv(path)

    def test_round_trip(self, tmp_path, two_province_dataset):
        path = tmp_path / "round.csv"
        write_csv(two_province_dataset, path)
        again = ingest_csv(path)
        assert same_dataset(again, two_province_dataset)

    def test_accepts_open_stream(self, tmp_path, two_province_dataset):
        path = tmp_path / "stream.csv"
        write_csv(two_province_dataset, path)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            again = ingest_csv(fh)
        assert same_dataset(again, two_province_dataset)


class TestRedistrictingMap:
    def test_builtin_covers_18_onto_5(self):
        assert len(BURUNDI_REDISTRICTING.mapping) == 18
        assert BURUNDI_REDISTRICTING.new_provinces() == NEW_PROVINCES
        assert len(OLD_PROVINCES) == 18

    def test_builtin_group_sizes(self):
        sizes = sorted(len(m) for m in BURUNDI_REDISTRICTING_GROUPS.values())
        assert sizes == [3, 3, 4, 4, 4]

    def test_map_csv_round_trip(self, tmp_path):
        path = tmp_path / "map.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["old_province", "new_province"])
            for old, new in sorted(BURUNDI_REDISTRICTING.mapping.items()):
                writer.writerow([old, new])
        again = read_map_csv(path)
        assert again.mapping == BURUNDI_REDISTRICTING.mapping

    def test_map_csv_rejects_duplicates(self, tmp_path):
        path = tmp_path / "dup.csv"
        with open(path, "w", newline="") as fh:
            fh.write("old_province,new_province\nA,X\nA,Y\n")
        with pytest.raises(DataError, match="duplicate"):
            read_map_csv(path)


def grouped_dataset(case_sets, temp_sets, n_months=3, hum=70.0):
    """Provinces P0, P1, ... with constant cases and temperature each."""
    return Dataset(
        [f"P{i}" for i in range(len(case_sets))],
        MonthKey(2010, 1),
        [[[temp, 100.0, hum]] * n_months for temp in temp_sets],
        np.full((len(case_sets), n_months), 1000, dtype=np.int64),
        np.array([[c] * n_months for c in case_sets], dtype=np.int64),
    )


class TestAggregation:
    def test_cases_sum(self):
        ds = grouped_dataset([10, 20, 30, 40], [20.0, 20.0, 20.0, 20.0])
        mapping = RedistrictingMap({f"P{i}": "Merged" for i in range(4)})
        out = aggregate_provinces(ds, mapping)
        assert out.provinces == ["Merged"]
        assert out.cases.tolist() == [[100, 100, 100]]

    def test_climate_mean(self):
        ds = grouped_dataset([1, 1, 1, 1], [20.0, 22.0, 24.0, 26.0])
        mapping = RedistrictingMap({f"P{i}": "Merged" for i in range(4)})
        out = aggregate_provinces(ds, mapping)
        assert out.climate[0, :, 0].tolist() == [23.0, 23.0, 23.0]

    def test_singleton_group_is_identity(self):
        ds = grouped_dataset([10, 20], [20.0, 25.0])
        mapping = RedistrictingMap({"P0": "A", "P1": "B"})
        out = aggregate_provinces(ds, mapping)
        assert out.provinces == ["A", "B"]
        assert np.array_equal(out.cases, ds.cases)
        assert np.array_equal(out.climate, ds.climate)
        assert np.array_equal(out.population, ds.population)

    def test_refuses_missing_climate(self):
        ds = with_cell(grouped_dataset([1], [20.0]), "P0", 1, temp_mean=None)
        with pytest.raises(DataError, match="P0 at 2010-02; run imputation"):
            aggregate_provinces(ds, RedistrictingMap({"P0": "A"}))

    def test_unmapped_province(self):
        ds = grouped_dataset([1], [20.0])
        with pytest.raises(DataError, match="redistricting map"):
            aggregate_provinces(ds, RedistrictingMap({"Somewhere": "A"}))

    def test_missing_mapped_province(self):
        ds = grouped_dataset([1], [20.0])
        mapping = RedistrictingMap({"P0": "A", "P9": "A"})
        with pytest.raises(CoverageError, match="P9"):
            aggregate_provinces(ds, mapping)

    def test_permutation_invariance(self):
        ds = grouped_dataset([3, 7, 11], [19.0, 23.0, 27.0])
        fwd = RedistrictingMap({"P0": "A", "P1": "A", "P2": "A"})
        rev = RedistrictingMap({"P2": "A", "P1": "A", "P0": "A"})
        out1 = aggregate_provinces(ds, fwd)
        out2 = aggregate_provinces(ds, rev)
        assert same_dataset(out1, out2)

    def test_sum_above_2_53_refused(self):
        # Each member is within bounds; the sum is not, and must neither
        # wrap around nor round.
        ds = grouped_dataset([2**52 + 1, 2**52 + 1], [20.0, 20.0])
        with pytest.raises(DataError, match="M 2010-01: cases must be <= 2.*9007199254740994"):
            aggregate_provinces(ds, RedistrictingMap({"P0": "M", "P1": "M"}))


class TestCountryLevel:
    def make_new_dataset(self):
        return grouped_dataset([100] * 5, [20.0] * 5, n_months=4)

    def test_cases_sum(self):
        country = to_country_level(self.make_new_dataset())
        assert country.provinces == [COUNTRY_NAME]
        assert country.cases.tolist() == [[500] * 4]

    def test_humidity_mean(self):
        ds = self.make_new_dataset()
        climate = ds.climate.copy()
        climate[:, :, 2] = np.array([50.0, 60.0, 70.0, 80.0, 90.0])[:, None]
        ds = Dataset(ds.provinces, ds.start, climate, ds.population, ds.cases)
        country = to_country_level(ds)
        assert country.climate[0, :, 2].tolist() == [70.0] * 4

    def test_month_count_preserved(self):
        ds = self.make_new_dataset()
        country = to_country_level(ds)
        assert country.months() == ds.months()


class TestConservation:
    def test_cases_conserved_through_both_stages(self):
        # Direct recomputation oracle: monthly sums straight from the raw rows.
        from malaria_forecast.synthgen import SynthConfig, generate

        truth, _ = generate(SynthConfig(seed=5, months=30, missing_rate=0.0))
        new = aggregate_provinces(truth, BURUNDI_REDISTRICTING)
        country = to_country_level(new)
        for i in range(len(truth.months())):
            old_sum = sum(truth.cases[:, i].tolist())
            new_sum = sum(new.cases[:, i].tolist())
            assert old_sum == new_sum == country.cases[0, i]
            assert country.population[0, i] == sum(truth.population[:, i].tolist())


# -- Property tests ---------------------------------------------------------

names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=8,
).filter(lambda s: s == s.strip() and s != "")
climate_values = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, max_provinces=4, max_months=6, max_count=2**53, missing=True):
    provinces = sorted(draw(st.sets(names, min_size=1, max_size=max_provinces)))
    shape = (len(provinces), draw(st.integers(1, max_months)))
    cells = shape[0] * shape[1]
    climate = np.array(draw(st.lists(st.tuples(
        climate_values, climate_values, st.floats(0.0, 100.0)), min_size=cells, max_size=cells)))
    climate = climate.reshape(*shape, 3)
    if missing:
        mask = np.array(draw(st.lists(st.booleans(), min_size=3 * cells, max_size=3 * cells)))
        climate[mask.reshape(climate.shape)] = np.nan
    counts = st.lists(st.integers(0, max_count), min_size=cells, max_size=cells)
    population = np.maximum(np.array(draw(counts), dtype=np.int64), 1).reshape(shape)
    cases = np.array(draw(counts), dtype=np.int64).reshape(shape)
    start = MonthKey(draw(st.integers(1, 3000)), draw(st.integers(1, 12)))
    return Dataset(provinces, start, climate, population, cases)


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_write_then_ingest_is_bit_identical(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_csv(ds, path)
        again = ingest_csv(path)
    assert same_dataset(again, ds)
    assert np.array_equal(np.isnan(again.climate), np.isnan(ds.climate))


def left_to_right_mean(values):
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total / len(values)


@settings(max_examples=200, deadline=None)
@given(datasets(max_provinces=18, max_months=3, max_count=2**53 // 18, missing=False), st.data())
def test_redistricting_conserves_counts_and_averages_left_to_right(ds, data):
    groups = data.draw(st.lists(st.sampled_from("VWXYZ"), min_size=len(ds.provinces), max_size=len(ds.provinces)))
    mapping = RedistrictingMap(dict(zip(reversed(ds.provinces), reversed(groups))))
    new = aggregate_provinces(ds, mapping)
    country = to_country_level(new)
    assert new.provinces == sorted(set(groups))
    for t in range(ds.cases.shape[1]):
        for counts in ("cases", "population"):
            old = getattr(ds, counts)[:, t].tolist()
            assert sum(getattr(new, counts)[:, t].tolist()) == sum(old) == getattr(country, counts)[0, t]
        for p, name in enumerate(new.provinces):
            members = [ds.provinces.index(m) for m in mapping.members(name)]
            for k in range(3):
                expected = left_to_right_mean([float(ds.climate[m, t, k]) for m in members])
                assert float(new.climate[p, t, k]) == expected
        for k in range(3):
            expected = left_to_right_mean(new.climate[:, t, k].tolist())
            assert float(country.climate[0, t, k]) == expected


MUTANT_TOKENS = ["", "nan", "NaN", "inf", "-inf", "1e400", "-1", "0", "1.5", "abc", "13",
                 str(2**53), str(2**53 + 1), str(10**20), str(-(10**20)), ",", '"', "\n", "\x00",
                 "x" * 200_000]


@st.composite
def mutated_csv(draw):
    lines = [",".join(HEADER)]
    for name in ("Alpha", "Beta"):
        for month in (1, 2, 3):
            lines.append(f"{name},2010,{month},20.5,100.0,70.0,1000,10")
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["cell", "drop", "duplicate", "truncate"]))
        if action == "cell":
            cells = lines[k].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(MUTANT_TOKENS) | st.text(max_size=4))
            lines[k] = ",".join(cells)
        elif action == "drop" and len(lines) > 1:
            del lines[k]
        elif action == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k] = lines[k][: draw(st.integers(0, len(lines[k])))]
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(mutated_csv())
def test_mutated_csv_raises_only_data_error(text):
    try:
        ds = ingest_csv(io.StringIO(text, newline=""))
    except DataError:
        return
    # Whatever is accepted meets every value rule, and a missing cell only
    # ever comes from an empty one.
    assert np.isfinite(ds.climate[~np.isnan(ds.climate)]).all()
    assert (ds.population > 0).all() and (ds.cases >= 0).all()
    assert ds.cases.max() <= 2**53 and ds.population.max() <= 2**53
