import numpy as np
import pytest

from conftest import make_series, with_cell
from malaria_forecast.errors import ConfigError, DataError
from malaria_forecast.windowing import WindowSpec, make_windows, split_train_test


class TestWindowSpec:
    def test_feature_widths(self):
        assert WindowSpec(12, "univariate").feature_width == 1
        assert WindowSpec(12, "multivariate").feature_width == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(0, "univariate")
        with pytest.raises(ValueError):
            WindowSpec(3, "bivariate")


class TestMakeWindows:
    def test_sample_count_law(self):
        series = make_series("A", 14)
        w = make_windows(series, "A", WindowSpec(12, "univariate"))
        assert w.samples == 2

    def test_sample_count_law_random_lengths(self):
        for n, lookback in ((20, 3), (25, 24), (13, 12), (50, 7)):
            w = make_windows(make_series("A", n), "A", WindowSpec(lookback, "univariate"))
            assert w.samples == n - lookback

    def test_univariate_window_contents(self):
        series = make_series("A", 3, cases=[1, 2, 3])
        w = make_windows(series, "A", WindowSpec(2, "univariate"))
        assert w.inputs.shape == (1, 2, 1)
        assert w.inputs[0].tolist() == [[1.0], [2.0]]
        assert w.targets.tolist() == [3.0]
        assert str(w.months[0]) == "2010-03"

    def test_multivariate_width_and_order(self):
        series = make_series("A", 4, temp=21.0, rain=80.0, hum=65.0, population=500, cases=[7, 8, 9, 10])
        w = make_windows(series, "A", WindowSpec(3, "multivariate"))
        assert w.inputs.shape == (1, 3, 5)
        assert w.inputs[0, 0].tolist() == [21.0, 80.0, 65.0, 500.0, 7.0]
        assert w.targets[0] == 10.0

    def test_too_short_reports_minimum(self):
        with pytest.raises(DataError, match="13"):
            make_windows(make_series("A", 12), "A", WindowSpec(12, "univariate"))

    def test_multivariate_requires_complete_climate(self):
        series = with_cell(make_series("A", 5), "A", 2, temp_mean=None)
        with pytest.raises(DataError, match="^A 2010-03: missing temp_mean value; impute before windowing$"):
            make_windows(series, "A", WindowSpec(3, "multivariate"))
        assert make_windows(series, "A", WindowSpec(3, "univariate")).samples == 2

    def test_windows_equal_explicit_slices(self):
        from malaria_forecast.synthgen import SynthConfig, generate

        truth, _ = generate(SynthConfig(seed=2, months=30, provinces=("Alpha", "Beta"), missing_rate=0.0))
        w = make_windows(truth, "Beta", WindowSpec(4, "multivariate"))
        climate, population, cases = truth.climate[1].tolist(), truth.population[1].tolist(), truth.cases[1].tolist()
        rows = [[*climate[t], float(population[t]), float(cases[t])] for t in range(30)]
        assert w.inputs.flags.c_contiguous
        assert w.inputs.tolist() == [rows[i : i + 4] for i in range(26)]
        assert w.targets.tolist() == [float(c) for c in cases[4:]]
        assert w.months == truth.months()[4:]

    def test_reconstruction_from_windows(self):
        cases = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        series = make_series("A", 10, cases=cases)
        w = make_windows(series, "A", WindowSpec(4, "univariate"))
        rebuilt = [float(v) for v in w.inputs[0][:, -1]] + [float(t) for t in w.targets]
        assert rebuilt == [float(c) for c in cases]


class TestSplit:
    def test_eighty_twenty(self):
        w = make_windows(make_series("A", 22), "A", WindowSpec(12, "univariate"))
        assert w.samples == 10
        train, test = split_train_test(w, 0.8)
        assert train.samples == 8
        assert test.samples == 2

    def test_floor_rule(self):
        w = make_windows(make_series("A", 17), "A", WindowSpec(12, "univariate"))
        assert w.samples == 5
        train, test = split_train_test(w, 0.8)
        assert (train.samples, test.samples) == (4, 1)

    def test_chronological_no_overlap(self):
        w = make_windows(make_series("A", 30), "A", WindowSpec(6, "univariate"))
        train, test = split_train_test(w, 0.8)
        assert max(train.months) < min(test.months)

    def test_scalers_fitted_on_train_only(self):
        # Rising series: the test range exceeds the training range, so scaled
        # test values land above 1 - the documented consequence of no leakage.
        cases = list(range(10, 40))
        w = make_windows(make_series("A", 30, cases=cases), "A", WindowSpec(6, "univariate"))
        train, test = split_train_test(w, 0.8)
        assert float(train.targets.max()) == 1.0
        assert float(test.targets.max()) > 1.0
        full_max = float(np.max(w.targets))
        assert train.target_scaler.maxs[0] < full_max

    def test_round_trip_through_scalers(self):
        w = make_windows(make_series("A", 30), "A", WindowSpec(6, "multivariate"))
        train, _ = split_train_test(w, 0.8)
        raw = train.input_scaler.inverse(train.inputs)
        assert np.allclose(raw, w.inputs[: train.samples], atol=1e-9)

    def test_fraction_bounds(self):
        w = make_windows(make_series("A", 20), "A", WindowSpec(6, "univariate"))
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                split_train_test(w, bad)

    def test_empty_partition_rejected(self):
        w = make_windows(make_series("A", 8), "A", WindowSpec(6, "univariate"))
        assert w.samples == 2
        with pytest.raises(ValueError, match="empty") as info:
            split_train_test(w, 0.1)
        assert isinstance(info.value, ConfigError)

    def test_one_window_is_a_data_error(self):
        # No fraction splits a single window, so the series is at fault.
        w = make_windows(make_series("A", 7), "A", WindowSpec(6, "univariate"))
        assert w.samples == 1
        with pytest.raises(DataError, match="^7 months at window.lookback 6: 1 windows"):
            split_train_test(w, 0.5)

    def test_partitions_carry_bookkeeping(self):
        w = make_windows(make_series("A", 30), "A", WindowSpec(6, "univariate"))
        train, test = split_train_test(w, 0.75)
        assert (train.samples, test.samples) == (18, 6)
        assert test.months[0] == w.months[18] == train.months[-1].next()
        assert train.input_scaler is test.input_scaler
