import math
import warnings

import numpy as np
import pytest

from malaria_forecast.core_math import MinMaxScaler, Rng, derive_seed, gate_activation
from malaria_forecast.errors import ShapeError


LOGISTIC, TANH = 0.5, 1.0  # gate_activation scales


class TestActivations:
    def test_sigmoid_zero(self):
        assert gate_activation(0.0, LOGISTIC) == 0.5

    def test_tanh_zero(self):
        assert gate_activation(0.0, TANH) == 0.0

    def test_sigmoid_log3(self):
        assert gate_activation(math.log(3.0), LOGISTIC) == pytest.approx(0.75, abs=1e-12)

    def test_sigmoid_symmetry(self):
        xs = np.linspace(-50.0, 50.0, 2001)
        s = gate_activation(xs, LOGISTIC)
        assert np.all(np.abs(s + gate_activation(-xs, LOGISTIC) - 1.0) < 1e-12)

    def test_saturation_without_overflow(self):
        # One LSTM gate row: logistic i/f/o blocks around a tanh g block.
        scale = np.array([LOGISTIC, LOGISTIC, TANH, LOGISTIC])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            high = gate_activation(np.full(4, 1000.0), scale)
            low = gate_activation(np.full(4, -1000.0), scale)
        assert high.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert low.tolist() == [0.0, 0.0, -1.0, 0.0]

    def test_fused_row_matches_logistic_and_tanh(self):
        z = np.linspace(-40.0, 40.0, 8001)
        scale = np.where(np.arange(z.size) % 4 == 2, TANH, LOGISTIC)
        out = gate_activation(z, scale)
        expected = np.where(scale == TANH, np.tanh(z), 1.0 / (1.0 + np.exp(-z)))
        assert np.max(np.abs(out - expected)) <= 1e-15

    def test_ranges(self):
        # Strict bounds hold until float64 saturation (tanh hits 1.0 near |x|=19).
        xs = np.linspace(-18, 18, 101)
        s = gate_activation(xs, LOGISTIC)
        t = gate_activation(xs, TANH)
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))


class TestMinMaxScaler:
    def test_midpoint(self):
        scaler = MinMaxScaler.fit(np.arange(11.0).reshape(-1, 1))
        assert scaler.transform(np.array([5.0]))[0] == 0.5

    def test_round_trip(self):
        rng = Rng(3)
        data = rng.uniform(-100, 100, size=(40, 4))
        scaler = MinMaxScaler.fit(data)
        back = scaler.inverse(scaler.transform(data))
        assert np.all(np.abs(back - data) < 1e-12)

    def test_constant_feature_maps_to_zero(self):
        scaler = MinMaxScaler.fit(np.array([[7.0], [7.0], [7.0]]))
        assert scaler.transform(np.array([7.0]))[0] == 0.0
        assert scaler.inverse(np.array([0.0]))[0] == 7.0

    def test_width_mismatch(self):
        scaler = MinMaxScaler.fit(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            scaler.transform(np.zeros(2))

    def test_transform_maps_bounds(self):
        data = np.array([[2.0, -1.0], [10.0, 3.0]])
        scaler = MinMaxScaler.fit(data)
        out = scaler.transform(data)
        assert np.array_equal(out, np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_fit_requires_rows(self):
        with pytest.raises(ValueError):
            MinMaxScaler.fit(np.zeros((0, 2)))


class TestRng:
    def test_same_seed_same_sequence(self):
        a = Rng(42)
        b = Rng(42)
        assert [a.uniform(0, 1) for _ in range(10)] == [b.uniform(0, 1) for _ in range(10)]

    def test_draws_stay_in_range(self):
        rng = Rng(1)
        draws = rng.uniform(0.0, 1.0, size=10_000)
        assert np.all((draws >= 0.0) & (draws < 1.0))

    def test_rejects_empty_interval(self):
        rng = Rng(0)
        with pytest.raises(ValueError):
            rng.uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            rng.uniform(2.0, 1.0)

    def test_law_of_large_numbers(self):
        # Independent oracle: the empirical mean of U[0,1) converges to 0.5.
        draws = Rng(2024).uniform(0.0, 1.0, size=100_000)
        assert abs(float(draws.mean()) - 0.5) <= 0.01

    def test_shuffle_and_choice_reproducible(self):
        a, b = Rng(9), Rng(9)
        xs = np.arange(20)
        ys = np.arange(20)
        a.shuffle(xs)
        b.shuffle(ys)
        assert np.array_equal(xs, ys)
        assert np.array_equal(a.choice(xs, size=5, replace=False), b.choice(ys, size=5, replace=False))

    def test_split_reproducible(self):
        kids_a = Rng(5).split(3)
        kids_b = Rng(5).split(3)
        for ka, kb in zip(kids_a, kids_b):
            assert ka.uniform(0, 1, size=4).tolist() == kb.uniform(0, 1, size=4).tolist()

    def test_split_children_differ(self):
        k1, k2 = Rng(5).split(2)
        assert k1.uniform(0, 1) != k2.uniform(0, 1)

    def test_rejects_non_integer_seed(self):
        with pytest.raises(ValueError):
            Rng(1.5)


class TestDeriveSeed:
    def test_stable_value(self):
        # Frozen: the derivation is a SHA-256 hash, identical on every platform.
        assert derive_seed(42, "synth") == derive_seed(42, "synth")
        assert derive_seed(42, "synth") != derive_seed(42, "impute")
        assert derive_seed(42, "synth") != derive_seed(43, "synth")

    def test_range(self):
        for label in ("a", "b", "train:Gitega:univariate"):
            s = derive_seed(7, label)
            assert 0 <= s < 2**63
