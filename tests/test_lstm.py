import math

import numpy as np
import pytest

from conftest import sinusoid_series
from malaria_forecast.core_math import Rng
from malaria_forecast.errors import DataError, DivergenceError, ShapeError
from malaria_forecast.lstm import (
    AdamMoments,
    LstmParams,
    TrainConfig,
    adam_step,
    backward,
    clip_gradients,
    forecast_test_horizon,
    forward,
    gradient_check,
    init_params,
    load_model,
    loss_mse,
    predict,
    save_model,
    train,
)
from malaria_forecast.windowing import WindowSpec, make_windows, split_train_test


def zero_params(features=3, hidden=4):
    params = init_params(features, hidden, Rng(0))
    for _, arr in params.tensors():
        arr[:] = 0.0
    return params


def blocks(hidden):
    """Row slices of the i, f, g, o gate blocks in ``w`` and ``b``."""
    return [slice(k * hidden, (k + 1) * hidden) for k in range(4)]


def gate_forced_params(features=3, hidden=4, seed=1):
    """Zero weights; forget gate wide open, input/output gates shut."""
    params = init_params(features, hidden, Rng(seed))
    for name, arr in params.tensors():
        if name != "b_y":
            arr[:] = 0.0
    i, f, _, o = blocks(hidden)
    params.b[f] = 20.0
    params.b[i] = -20.0
    params.b[o] = -20.0
    return params


class TestCellStep:
    """One step of the cell, as a length-1 window through ``forward``."""

    def test_zero_params_zero_state(self):
        # Gates sit at 0.5 and the candidate at tanh(0)=0 for any input.
        params = zero_params()
        for x in (np.zeros(3), np.array([0.3, -1.0, 2.0])):
            pred, cache = forward(params, x[None, :])
            assert np.all(cache.h == 0.0)
            assert np.all(cache.c == 0.0)
            assert pred == 0.0

    def test_scalar_cell_state_carry(self):
        # Hand computation for one step from zero state: i=sigma(40-20)~1,
        # candidate g=tanh(atanh 0.5)=0.5, o=sigma(20)~1, so c' ~ 0.5 and
        # h' ~ tanh(0.5) = 0.46212. A second step with x=0 shuts the input
        # gate, and the open forget gate (sigma(20)) carries c' through.
        params = zero_params(features=1, hidden=1)
        i, f, g, o = blocks(1)
        params.w[i, 0] = 40.0
        params.b[i] = -20.0
        params.b[f] = 20.0
        params.b[g] = math.atanh(0.5)
        params.b[o] = 20.0
        _, cache = forward(params, np.array([[1.0]]))
        assert cache.c[0, 0, 0] == pytest.approx(0.5, abs=1e-8)
        assert cache.h[0, 0, 0] == pytest.approx(0.4621, abs=1e-4)
        assert cache.h[0, 0, 0] == pytest.approx(math.tanh(0.5), abs=1e-8)
        _, cache = forward(params, np.array([[1.0], [0.0]]))
        assert cache.c[0, 1, 0] == pytest.approx(0.5, abs=1e-8)
        assert cache.h[0, 1, 0] == pytest.approx(math.tanh(0.5), abs=1e-8)

    def test_purity(self):
        params = init_params(2, 3, Rng(5))
        before = params.copy()
        x = np.array([[0.3, -0.2]])
        a, cache_a = forward(params, x)
        b, cache_b = forward(params, x)
        assert a == b
        assert np.array_equal(cache_a.h, cache_b.h)
        assert np.array_equal(cache_a.c, cache_b.c)
        assert np.array_equal(x, np.array([[0.3, -0.2]])), "input window must not mutate"
        for (_, new), (_, old) in zip(params.tensors(), before.tensors()):
            assert np.array_equal(new, old), "params must not mutate"

    def test_shape_mismatch(self):
        params = init_params(2, 3, Rng(0))
        with pytest.raises(ShapeError):
            forward(params, np.zeros((1, 5)))
        with pytest.raises(ShapeError):
            forward(params, np.zeros(2))
        other = init_params(2, 4, Rng(0))
        with pytest.raises(ShapeError):
            LstmParams(w=params.w, b=params.b, w_y=other.w_y, b_y=params.b_y)


class TestForward:
    def test_zero_params_predict_bias(self):
        params = zero_params()
        params.b_y[:] = 0.37
        pred, _ = forward(params, Rng(1).uniform(-1, 1, size=(6, 3)))
        assert pred == 0.37

    def test_length_one_equals_cell_step_plus_head(self):
        # The gate equations written out per block, from zero state; the
        # forget gate multiplies the zero initial cell state.
        params = init_params(3, 4, Rng(2))
        x = Rng(3).uniform(-1, 1, size=3)
        z = params.w[:, :3] @ x + params.b
        i, _, g, o = (z[rows] for rows in blocks(4))
        c = 1.0 / (1.0 + np.exp(-i)) * np.tanh(g)
        h = 1.0 / (1.0 + np.exp(-o)) * np.tanh(c)
        expected = float(h @ params.w_y + params.b_y[0])
        pred, _ = forward(params, x[None, :])
        assert pred == pytest.approx(expected, abs=1e-15)

    def test_leading_closed_gate_step_is_invisible(self):
        # With input/output gates shut and zero weights the state stays at
        # exactly zero, so prepending a step cannot change the prediction.
        params = gate_forced_params()
        window = Rng(4).uniform(-1, 1, size=(5, 3))
        longer = np.vstack([Rng(5).uniform(-1, 1, size=(1, 3)), window])
        pred_short, _ = forward(params, window)
        pred_long, _ = forward(params, longer)
        assert pred_short == pred_long

    def test_batch_matches_singles(self):
        params = init_params(2, 3, Rng(6))
        batch = Rng(7).uniform(-1, 1, size=(4, 5, 2))
        preds, _ = forward(params, batch)
        for i in range(4):
            single, _ = forward(params, batch[i])
            assert single == pytest.approx(preds[i], abs=1e-15)

    def test_hidden_state_bounded(self):
        params = init_params(3, 8, Rng(8))
        _, cache = forward(params, Rng(9).uniform(-3, 3, size=(10, 20, 3)))
        assert np.all(np.abs(cache.h) < 1.0)
        assert np.all(np.isfinite(cache.c))

    def test_feature_mismatch(self):
        params = init_params(3, 4, Rng(0))
        with pytest.raises(ShapeError):
            forward(params, np.zeros((5, 2)))


class TestLoss:
    def test_identical_is_zero(self):
        assert loss_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_error(self):
        assert loss_mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_single_pair(self):
        assert loss_mse([2.0], [5.0]) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss_mse([], [])


class TestBackward:
    def test_output_bias_gradient_closed_form(self):
        params = init_params(3, 4, Rng(10))
        window = Rng(11).uniform(-1, 1, size=(5, 3))
        target = 0.9
        pred, cache = forward(params, window)
        grads = backward(params, cache, np.array([2.0 * (pred - target)]))
        assert grads["b_y"][0] == pytest.approx(2.0 * (pred - target), abs=1e-15)

    def test_zero_loss_gives_zero_gradients(self):
        params = init_params(3, 4, Rng(12))
        window = Rng(13).uniform(-1, 1, size=(5, 3))
        _, cache = forward(params, window)
        grads = backward(params, cache, np.array([0.0]))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_stale_cache_rejected(self):
        params = init_params(3, 4, Rng(14))
        _, cache = forward(params, np.zeros((5, 3)))
        other = init_params(3, 4, Rng(15))
        with pytest.raises(ValueError, match="different parameter"):
            backward(other, cache, np.array([1.0]))

    def test_gradient_check_small_nets(self):
        worst = 0.0
        for seed in range(3):
            rng = Rng(seed)
            params = init_params(3, 4, rng)
            inputs = rng.uniform(-1, 1, size=(4, 5, 3))
            targets = rng.uniform(-1, 1, size=4)
            errors = gradient_check(params, inputs, targets, epsilon=1e-5)
            assert set(errors) == {name for name, _ in params.tensors()}
            worst = max(worst, max(errors.values()))
        assert worst < 1e-4


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # Closed form: m-hat/sqrt(v-hat) = sign(g) at t=1, so the update is
        # lr * |g| / (|g| + eps) ~ lr for any non-vanishing constant gradient.
        params = init_params(2, 3, Rng(16))
        before = params.copy()
        cfg = TrainConfig(hidden=3, learning_rate=1e-3)
        grads = {name: np.full_like(arr, 0.25) for name, arr in params.tensors()}
        clipped_norm = math.sqrt(sum(g.size * 0.25**2 for g in grads.values()))
        assert clipped_norm < cfg.clip_norm, "test gradient must not trigger clipping"
        adam_step(params, grads, AdamMoments.zeros(params), 1, cfg)
        for (_, new), (_, old) in zip(params.tensors(), before.tensors()):
            delta = np.abs(new - old)
            assert np.all(np.abs(delta - cfg.learning_rate) < 1e-7)

    def test_zero_gradient_leaves_params(self):
        params = init_params(2, 3, Rng(17))
        before = params.copy()
        grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        moments = AdamMoments.zeros(params)
        adam_step(params, grads, moments, 1, TrainConfig(hidden=3))
        for (_, new), (_, old) in zip(params.tensors(), before.tensors()):
            assert np.array_equal(new, old)

    def test_moments_decay_under_zero_gradient(self):
        params = init_params(2, 3, Rng(18))
        moments = AdamMoments.zeros(params)
        for name in moments.m:
            moments.m[name][:] = 1.0
            moments.v[name][:] = 1.0
        cfg = TrainConfig(hidden=3)
        grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        adam_step(params, grads, moments, 5, cfg)
        assert np.all(moments.m["w"] == cfg.beta1)
        assert np.all(moments.v["w"] == cfg.beta2)

    def test_clipping_scales_to_threshold(self):
        grads = {"a": np.full(4, 10.0), "b": np.full(2, -10.0)}
        norm = clip_gradients(grads, 5.0)
        assert norm == pytest.approx(math.sqrt(600.0))
        new_norm = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        assert new_norm == pytest.approx(5.0, abs=1e-12)


def sinusoid_partitions(n=120, lookback=12):
    series = sinusoid_series(n=n)
    w = make_windows(series, WindowSpec(lookback, "univariate"))
    return split_train_test(w, 0.8)


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        train_part, _ = sinusoid_partitions()
        cfg = TrainConfig(hidden=4, epochs=0, seed=3)
        model = train(train_part, cfg)
        assert model.loss_history == []
        fresh = init_params(1, 4, Rng(3))
        for (_, a), (_, b) in zip(model.params.tensors(), fresh.tensors()):
            assert np.array_equal(a, b)

    def test_loss_improves_on_sinusoid(self):
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=8, epochs=120, seed=0))
        assert len(model.loss_history) == 120
        assert model.loss_history[-1] < model.loss_history[0]
        assert all(math.isfinite(loss) for loss in model.loss_history)

    def test_training_is_bit_deterministic(self):
        train_part, _ = sinusoid_partitions()
        cfg = TrainConfig(hidden=6, epochs=30, seed=11)
        a = train(train_part, cfg)
        b = train(train_part, cfg)
        assert a.loss_history == b.loss_history
        for (_, x), (_, y) in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(x, y)

    def test_minibatch_mode_runs_deterministically(self):
        train_part, _ = sinusoid_partitions()
        cfg = TrainConfig(hidden=6, epochs=10, seed=2, batch_size=16)
        a = train(train_part, cfg)
        b = train(train_part, cfg)
        for (_, x), (_, y) in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(x, y)

    def test_divergence_reported_with_epoch(self):
        train_part, _ = sinusoid_partitions()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch"):
                train(train_part, TrainConfig(hidden=4, epochs=50, seed=0, learning_rate=1e300))

    def test_variants_share_structure(self):
        # Same code path for both variants; parameter shapes differ only in
        # the input columns of the gate matrix (1 vs 5, then 4 recurrent).
        uni_model = train(sinusoid_partitions()[0], TrainConfig(hidden=4, epochs=1, seed=0))
        from malaria_forecast.synthgen import SynthConfig, generate

        truth, _ = generate(SynthConfig(seed=0, months=40, provinces=("Alpha",), missing_rate=0.0))
        w = make_windows(truth.series["Alpha"], WindowSpec(12, "multivariate"))
        multi_part, _ = split_train_test(w, 0.8)
        multi_model = train(multi_part, TrainConfig(hidden=4, epochs=1, seed=0))
        for (name, a), (_, b) in zip(uni_model.params.tensors(), multi_model.params.tensors()):
            if name == "w":
                assert a.shape == (16, 1 + 4)
                assert b.shape == (16, 5 + 4)
            else:
                assert a.shape == b.shape


class TestPredict:
    def test_clamped_at_zero(self):
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=4, epochs=0, seed=0))
        model.params.b_y[:] = -100.0  # force a hugely negative scaled output
        preds = predict(model, train_part.inputs)
        assert np.all(preds == 0.0)

    def test_deterministic(self):
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=4, epochs=5, seed=0))
        assert np.array_equal(predict(model, train_part.inputs), predict(model, train_part.inputs))


class TestForecastHorizon:
    def make_model(self):
        series = sinusoid_series(n=100)
        w = make_windows(series, WindowSpec(12, "univariate"))
        train_part, test_part = split_train_test(w, 0.8)
        model = train(train_part, TrainConfig(hidden=8, epochs=150, seed=1))
        return model, series, test_part

    def test_alignment_with_test_partition(self):
        model, series, test_part = self.make_model()
        months, observed, predicted = forecast_test_horizon(model, series)
        assert months == test_part.months
        expected_obs = model.target_scaler.inverse(test_part.targets.reshape(-1, 1)).ravel()
        assert np.allclose(observed, expected_obs, atol=1e-9)
        assert np.array_equal(predicted, predict(model, test_part.inputs))

    def test_recursive_first_step_matches_one_step(self):
        model, series, _ = self.make_model()
        _, _, one_step = forecast_test_horizon(model, series, recursive=False)
        _, _, recursive = forecast_test_horizon(model, series, recursive=True)
        # The first test window contains no predicted months yet; batched vs
        # single-window matmuls may differ in the last bit only.
        assert recursive[0] == pytest.approx(one_step[0], rel=1e-12)
        assert np.all(np.isfinite(recursive))
        assert len(recursive) == len(one_step)

    def test_never_scores_training_months(self):
        # 100 months from 2000-01 with lookback 12 give 88 windows; the first
        # 70 train, so the last training target is month 82 (2006-10). On
        # the first 80 months a re-derived 0.8 split would score 2005-07 ..
        # 2006-08, all of them training months.
        series = sinusoid_series(n=100)
        train_part, _ = split_train_test(make_windows(series, WindowSpec(12, "univariate")), 0.8)
        model = train(train_part, TrainConfig(hidden=2, epochs=0, seed=1))
        assert str(model.train_end) == "2006-10"
        with pytest.raises(DataError, match="after the model's last training month 2006-10"):
            forecast_test_horizon(model, series[:80])
        months, _, _ = forecast_test_horizon(model, series[:90])
        assert [str(m) for m in months] == [str(r.month) for r in series[82:90]]


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=5, epochs=8, seed=4))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        for (name, a), (_, b) in zip(model.params.tensors(), loaded.params.tensors()):
            assert np.array_equal(a, b), name
        assert loaded.spec == model.spec
        assert loaded.train_end == model.train_end == train_part.months[-1]
        assert np.array_equal(loaded.input_scaler.mins, model.input_scaler.mins)
        assert np.array_equal(loaded.input_scaler.maxs, model.input_scaler.maxs)
        assert np.array_equal(loaded.target_scaler.mins, model.target_scaler.mins)
        assert np.array_equal(loaded.target_scaler.maxs, model.target_scaler.maxs)

    def test_save_is_byte_stable(self, tmp_path):
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=3, epochs=2, seed=6))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(DataError):
            load_model(path)

    def small_model_lines(self, tmp_path):
        train_part, _ = sinusoid_partitions()
        path = tmp_path / "model.txt"
        save_model(train(train_part, TrainConfig(hidden=2, epochs=1, seed=3)), path)
        return path.read_text().splitlines(keepends=True)

    def test_cut_at_every_line_boundary_names_the_line(self, tmp_path):
        lines = self.small_model_lines(tmp_path)
        # 6 header lines, tensors w (1 + 8 rows), b, w_y and b_y (1 + 1
        # each), two scalers (1 + 2 each), sha256, end.
        assert len(lines) == 29
        path = tmp_path / "cut.txt"
        for keep in range(len(lines)):
            path.write_text("".join(lines[:keep]))
            with pytest.raises(DataError, match=f"line {keep + 1}: unexpected end of file"):
                load_model(path)

    @pytest.mark.parametrize(
        "line_no, replacement, message",
        [
            (2, "variant bogus", "line 2: variant must be one of"),
            (3, "lookback twelve", "line 3: lookback must be a positive integer"),
            (6, "train_end 2018-13", "line 6: train_end must be a YYYY-MM month"),
            (8, "0xZZp+0", "line 8: malformed hex float"),  # first row of tensor w
            (9, "inf", "line 9: non-finite value"),
            (27, "-0x1p+10", "line 27: scaler max must be >= min"),  # target scaler maxs
            (28, "sha256 0", "line 28: checksum mismatch"),
        ],
    )
    def test_bad_token_names_the_line(self, tmp_path, line_no, replacement, message):
        # The replacement takes the place of the line's leading tokens; the
        # rest of the line stays as written.
        lines = self.small_model_lines(tmp_path)
        old = lines[line_no - 1].split()
        new = replacement.split()
        lines[line_no - 1] = " ".join(new + old[len(new):]) + "\n"
        path = tmp_path / "bad.txt"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_flipped_hex_digit_fails_the_checksum(self, tmp_path):
        lines = self.small_model_lines(tmp_path)
        token = lines[7].split()[0]  # first weight of tensor w
        mantissa_end = token.index("p") - 1
        flipped = "%x" % ((int(token[mantissa_end], 16) + 1) % 16)
        lines[7] = lines[7].replace(token, token[:mantissa_end] + flipped + token[mantissa_end + 1 :], 1)
        path = tmp_path / "flipped.txt"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match="line 28: checksum mismatch"):
            load_model(path)

    def test_format_1_is_refused(self, tmp_path):
        lines = self.small_model_lines(tmp_path)
        lines[0] = "malaria-forecast model 1\n"
        path = tmp_path / "v1.txt"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match="line 1: model format 1 is no longer read; retrain"):
            load_model(path)
