import copy
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import malaria_forecast
from malaria_forecast import lstm
from conftest import gate_activation, month_slice, sinusoid_series
from malaria_forecast.core_math import MinMaxScaler
from malaria_forecast.data_model import MAX_MAGNITUDE, Dataset, MonthKey
from malaria_forecast.errors import DataError, DivergenceError, ShapeError
from malaria_forecast.synthgen import SynthConfig, generate
from malaria_forecast.lstm import (
    ForwardCache,
    LstmParams,
    TrainConfig,
    TrainedModel,
    adam_step,
    backward,
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
from malaria_forecast.windowing import VARIANTS, WindowSpec, make_windows, split_train_test


def zero_params(features=3, hidden=4):
    params = init_params(features, hidden, np.random.default_rng(0))
    for _, arr in params.tensors():
        arr[:] = 0.0
    return params


def blocks(hidden):
    """Row slices of the i, f, g, o gate blocks in ``w``."""
    return [slice(k * hidden, (k + 1) * hidden) for k in range(4)]


def gate_forced_params(features=3, hidden=4, seed=1):
    """Zero weights; forget gate wide open, input/output gates shut."""
    params = init_params(features, hidden, np.random.default_rng(seed))
    params.w[:] = 0.0
    params.head[1:] = 0.0
    i, f, _, o = blocks(hidden)
    params.w[f, 0] = 20.0
    params.w[i, 0] = -20.0
    params.w[o, 0] = -20.0
    return params


class TestCellStep:
    """One step of the cell, as a length-1 window through ``forward``."""

    def test_zero_params_zero_state(self):
        # Gates sit at 0.5 and the candidate at tanh(0)=0 for any input.
        params = zero_params()
        for x in (np.zeros(3), np.array([0.3, -1.0, 2.0])):
            (pred,), cache = forward(params, x[None, None, :])
            assert np.all(cache.h == 0.0)
            assert np.all(cache.c == 0.0)
            assert pred == 0.0

    def test_scalar_cell_state_carry(self):
        # Hand computation for one step from zero state: i=sigma(40-20)~1,
        # candidate g=tanh(atanh 0.5)=0.5, o=sigma(20)~1, so c' ~ 0.5 and
        # h' ~ tanh(0.5) = 0.46212. A second step with x=0 shuts the input
        # gate, and the open forget gate (sigma(20)) carries c' through.
        # The cache is indexed [state, unit, sample]; state 0 is the zero
        # initial state, so state t + 1 follows step t.
        params = zero_params(features=1, hidden=1)
        i, f, g, o = blocks(1)
        params.w[i, 1] = 40.0  # column 0 is the bias
        params.w[i, 0] = -20.0
        params.w[f, 0] = 20.0
        params.w[g, 0] = math.atanh(0.5)
        params.w[o, 0] = 20.0
        _, cache = forward(params, np.array([[[1.0]]]))
        assert cache.c[1, 0, 0] == pytest.approx(0.5, abs=1e-8)
        assert cache.h[1, 0, 0] == pytest.approx(0.4621, abs=1e-4)
        assert cache.h[1, 0, 0] == pytest.approx(math.tanh(0.5), abs=1e-8)
        _, cache = forward(params, np.array([[[1.0], [0.0]]]))
        assert cache.c[2, 0, 0] == pytest.approx(0.5, abs=1e-8)
        assert cache.h[2, 0, 0] == pytest.approx(math.tanh(0.5), abs=1e-8)

    def test_purity(self):
        params = init_params(2, 3, np.random.default_rng(5))
        before = copy.deepcopy(params)
        x = np.array([[[0.3, -0.2]]])
        (a,), cache_a = forward(params, x)
        (b,), cache_b = forward(params, x)
        assert a == b
        assert np.array_equal(cache_a.h, cache_b.h)
        assert np.array_equal(cache_a.c, cache_b.c)
        assert np.array_equal(x, np.array([[[0.3, -0.2]]])), "input window must not mutate"
        for (_, new), (_, old) in zip(params.tensors(), before.tensors()):
            assert np.array_equal(new, old), "params must not mutate"

    def test_shape_mismatch(self):
        params = init_params(2, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward(params, np.zeros((1, 5)))
        with pytest.raises(ShapeError):
            forward(params, np.zeros(2))
        other = init_params(2, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            LstmParams(w=params.w, head=other.head)


class TestForward:
    def test_zero_params_predict_bias(self):
        params = zero_params()
        params.head[0] = 0.37
        (pred,), _ = forward(params, np.random.default_rng(1).uniform(-1, 1, size=(1, 6, 3)))
        assert pred == 0.37

    def test_length_one_equals_cell_step_plus_head(self):
        # The gate equations written out per block, from zero state; the
        # forget gate multiplies the zero initial cell state.
        params = init_params(3, 4, np.random.default_rng(2))
        x = np.random.default_rng(3).uniform(-1, 1, size=3)
        z = params.w[:, 1:4] @ x + params.w[:, 0]
        i, _, g, o = (z[rows] for rows in blocks(4))
        c = 1.0 / (1.0 + np.exp(-i)) * np.tanh(g)
        h = 1.0 / (1.0 + np.exp(-o)) * np.tanh(c)
        expected = float(h @ params.head[1:] + params.head[0])
        (pred,), _ = forward(params, x[None, None, :])
        assert pred == pytest.approx(expected, abs=1e-15)

    def test_leading_closed_gate_step_is_invisible(self):
        # With input/output gates shut and zero weights the state stays at
        # exactly zero, so prepending a step cannot change the prediction.
        params = gate_forced_params()
        window = np.random.default_rng(4).uniform(-1, 1, size=(5, 3))
        longer = np.vstack([np.random.default_rng(5).uniform(-1, 1, size=(1, 3)), window])
        (pred_short,), _ = forward(params, window[None])
        (pred_long,), _ = forward(params, longer[None])
        assert pred_short == pred_long

    def test_batch_matches_singles(self):
        params = init_params(2, 3, np.random.default_rng(6))
        batch = np.random.default_rng(7).uniform(-1, 1, size=(4, 5, 2))
        preds, _ = forward(params, batch)
        for i in range(4):
            (single,), _ = forward(params, batch[i : i + 1])
            assert single == pytest.approx(preds[i], abs=1e-15)

    def test_folded_half_changes_no_bit(self):
        # forward halves the logistic rows of w before its GEMM; every
        # step's gates equal gate_activation of the unfolded pre-activation.
        params, x, _ = random_problem(7, 6, 3, 5, seed=4)
        _, cache = forward(params, x)
        scale = np.repeat([0.5, 0.5, 1.0, 0.5], 5)[:, None]
        for t in range(6):
            assert bits([cache.gates[t]]) == bits([gate_activation(np.matmul(params.w, cache.xh[t]), scale)])

    def test_hidden_state_bounded(self):
        params = init_params(3, 8, np.random.default_rng(8))
        _, cache = forward(params, np.random.default_rng(9).uniform(-3, 3, size=(10, 20, 3)))
        assert np.all(np.abs(cache.h) < 1.0)
        assert np.all(np.isfinite(cache.c))

    def test_feature_mismatch(self):
        params = init_params(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward(params, np.zeros((1, 5, 2)))

    def test_a_single_window_needs_a_batch_axis(self):
        truth, _ = generate(SynthConfig(seed=4, months=30, provinces=("Alpha",), missing_rate=0.0))
        part, _ = split_train_test(make_windows(truth, "Alpha", WindowSpec(3, "univariate")), 0.8)
        model = train(part, TrainConfig(hidden=3, epochs=1, seed=0))
        expects = r"windows must be an \(n, L, features\) batch, got shape \(3, 1\)"
        with pytest.raises(ShapeError, match=expects):
            forward(model.params, part.inputs[0])
        with pytest.raises(ShapeError, match=expects):
            predict(model, part.inputs[0])
        assert predict(model, part.inputs[:1]).shape == (1,)


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
        params = init_params(3, 4, np.random.default_rng(10))
        window = np.random.default_rng(11).uniform(-1, 1, size=(1, 5, 3))
        target = 0.9
        (pred,), cache = forward(params, window)
        grad = backward(params, cache, np.array([2.0 * (pred - target)]))
        # The head's bias is the first entry after w.
        assert grad[params.w.size] == pytest.approx(2.0 * (pred - target), abs=1e-15)

    def test_zero_loss_gives_zero_gradients(self):
        params = init_params(3, 4, np.random.default_rng(12))
        window = np.random.default_rng(13).uniform(-1, 1, size=(1, 5, 3))
        _, cache = forward(params, window)
        grad = backward(params, cache, np.array([0.0]))
        assert grad.shape == params.theta.shape
        assert np.all(grad == 0.0)

    def test_stale_cache_rejected(self):
        params = init_params(3, 4, np.random.default_rng(14))
        _, cache = forward(params, np.zeros((1, 5, 3)))
        other = init_params(3, 4, np.random.default_rng(15))
        with pytest.raises(ValueError, match="different parameter"):
            backward(other, cache, np.array([1.0]))

    def test_gradient_bytes_do_not_depend_on_blas_threads(self):
        # n * L = 1,032 rows: one GEMM over all of them rounds differently
        # under 1 and 2 OpenBLAS threads; dw must not. Then one Adam step
        # whose clip fires: the clipped gradient and the new weights must
        # not depend on the thread count either.
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from malaria_forecast.lstm import TrainConfig, adam_step, backward, forward, init_params\n"
            "rng = np.random.default_rng(3)\n"
            "params = init_params(5, 32, rng)\n"
            "preds, cache = forward(params, rng.uniform(0, 1, size=(86, 12, 5)))\n"
            "grad = backward(params, cache, (preds - rng.uniform(0, 1, size=86)) / 43)\n"
            "digest = hashlib.sha256(grad.tobytes())\n"
            "cfg = TrainConfig(hidden=32, clip_norm=1e-6)\n"
            "assert np.sqrt(np.sum(grad * grad)) > 100 * cfg.clip_norm\n"
            "adam_step(params, grad, np.zeros_like(grad), np.zeros_like(grad), 1, cfg, np.empty((2, grad.size)))\n"
            "digest.update(grad.tobytes() + params.theta.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(malaria_forecast.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout.strip())
        assert len(digests) == 1

    def test_gradient_check_small_nets(self):
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = init_params(3, 4, rng)
            inputs = rng.uniform(-1, 1, size=(4, 5, 3))
            targets = rng.uniform(-1, 1, size=4)
            errors = gradient_check(params, inputs, targets, epsilon=1e-5)
            assert set(errors) == {name for name, _ in params.tensors()}
            worst = max(worst, max(errors.values()))
        assert worst < 1e-4


def bits(values):
    return [np.asarray(a).tobytes() for a in values]


def random_problem(n, length, features, hidden, seed):
    """Spread weights, inputs and output gradients for one batch."""
    rng = np.random.default_rng(seed)
    params = init_params(features, hidden, rng)
    for _, arr in params.tensors():
        arr *= rng.uniform(0.5, 3.0)
    return params, rng.uniform(-2.0, 2.0, size=(n, length, features)), rng.uniform(-1.0, 1.0, size=n)


shapes = st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 5), st.integers(1, 6))


class TestWorkspace:
    """A cache reused across calls gives the bytes of a fresh one."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(shapes, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(
                st.tuples(st.sampled_from(pool), st.integers(0, 2**32 - 1)), min_size=2, max_size=8
            )
        )
    )
    def test_reused_cache_matches_a_fresh_one(self, calls):
        caches = {}
        for shape, seed in calls:
            params, x, d_pred = random_problem(*shape, seed)
            fresh_preds, fresh_cache = forward(params, x)
            fresh_grad = backward(params, fresh_cache, d_pred)
            if shape not in caches:
                caches[shape] = ForwardCache(*shape)
            preds, cache = forward(params, x, caches[shape])
            assert cache is caches[shape]
            grad = backward(params, cache, d_pred)
            assert bits([preds]) == bits([fresh_preds])
            assert bits([grad]) == bits([fresh_grad])

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(30, 60), st.integers(2, 6), st.integers(2, 9), st.sampled_from(VARIANTS),
        st.integers(0, 2**32 - 1),
    )
    def test_training_reuses_its_caches_without_changing_a_bit(self, months, lookback, batch, variant, seed):
        truth, _ = generate(SynthConfig(seed=seed, months=months, provinces=("Alpha",), missing_rate=0.0))
        part, _ = split_train_test(make_windows(truth, "Alpha", WindowSpec(lookback, variant)), 0.8)
        assume(part.samples % batch != 0 and batch < part.samples)  # a short last batch
        cfg = TrainConfig(hidden=4, epochs=3, seed=seed, batch_size=batch)
        reused = train(part, cfg)

        def fresh_forward(params, window, cache=None):
            return forward(params, window)

        with mock.patch.object(lstm, "forward", fresh_forward):
            fresh = train(part, cfg)
        assert reused.loss_history == fresh.loss_history
        assert bits(a for _, a in reused.params.tensors()) == bits(a for _, a in fresh.params.tensors())

    @pytest.mark.parametrize("batch", [100, None], ids=["minibatch", "fullbatch"])
    def test_steps_after_the_first_epoch_allocate_only_batch_length_vectors(self, batch):
        # Numpy reports its array buffers to tracemalloc. Once every
        # workspace exists, a step's arrays are batch-length vectors: the
        # predictions (the last step's live until the new ones are bound), a
        # minibatch's targets, the loss's difference and square, and
        # dLoss/dprediction with its two intermediates; at most 4 are live at
        # once. Numpy's ufunc buffers are capped at 64 elements here, so that
        # the bound counts arrays, not how a numpy version buffers its loops:
        # at most 3 operands of 512 B. The 4 KB allowance takes them and the
        # step's Python objects. A per-op (H, n) temporary (256 B a window), a
        # gathered (n, L, F) minibatch (240 B a window) or a temporary of
        # theta's size (39 KB) exceeds the bound.
        truth, _ = generate(SynthConfig(seed=3, months=300, provinces=("Alpha",), missing_rate=0.0))
        part, _ = split_train_test(make_windows(truth, "Alpha", WindowSpec(6, "multivariate")), 0.8)
        n = batch or part.samples
        assert part.samples % n != 0 or batch is None  # a short last minibatch
        per_epoch, calls, before = -(-part.samples // n), [0], []

        def adam_step_then_mark(*args):
            adam_step(*args)
            calls[0] += 1
            if calls[0] == per_epoch:
                before.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()

        bufsize = np.setbufsize(64)
        tracemalloc.start()
        try:
            with mock.patch.object(lstm, "adam_step", adam_step_then_mark):
                train(part, TrainConfig(hidden=32, epochs=5, batch_size=batch, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert calls[0] == 5 * per_epoch
        assert peak - before[0] < 4 * n * 8 + 4096

    def test_cache_of_another_shape_is_refused(self):
        params = init_params(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="cache does not fit"):
            forward(params, np.zeros((2, 5, 3)), ForwardCache(3, 5, 3, 4))
        with pytest.raises(ShapeError, match="cache does not fit"):
            forward(params, np.zeros((2, 5, 3)), ForwardCache(2, 5, 3, 5))


def zero_moments(params):
    """Adam's first and second moments at step 0."""
    return np.zeros_like(params.theta), np.zeros_like(params.theta)


def adam_scratch(params):
    """Two vectors of theta's size for adam_step's temporaries."""
    return np.empty((2, params.theta.size))


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # Closed form: m-hat/sqrt(v-hat) = sign(g) at t=1, so the update is
        # lr * |g| / (|g| + eps) ~ lr for any non-vanishing constant gradient.
        params = init_params(2, 3, np.random.default_rng(16))
        before = copy.deepcopy(params)
        cfg = TrainConfig(hidden=3, learning_rate=1e-3)
        grad = np.full_like(params.theta, 0.25)
        clipped_norm = math.sqrt(grad.size * 0.25**2)
        assert clipped_norm < cfg.clip_norm, "test gradient must not trigger clipping"
        adam_step(params, grad, *zero_moments(params), 1, cfg, adam_scratch(params))
        for (_, new), (_, old) in zip(params.tensors(), before.tensors()):
            delta = np.abs(new - old)
            assert np.all(np.abs(delta - cfg.learning_rate) < 1e-7)

    def test_zero_gradient_leaves_params(self):
        params = init_params(2, 3, np.random.default_rng(17))
        before = copy.deepcopy(params)
        grad = np.zeros_like(params.theta)
        adam_step(params, grad, *zero_moments(params), 1, TrainConfig(hidden=3), adam_scratch(params))
        for (_, new), (_, old) in zip(params.tensors(), before.tensors()):
            assert np.array_equal(new, old)

    def test_moments_decay_under_zero_gradient(self):
        params = init_params(2, 3, np.random.default_rng(18))
        m, v = np.ones_like(params.theta), np.ones_like(params.theta)
        cfg = TrainConfig(hidden=3)
        adam_step(params, np.zeros_like(params.theta), m, v, 5, cfg, adam_scratch(params))
        assert np.all(m == cfg.beta1)
        assert np.all(v == cfg.beta2)

    def test_clipping_scales_to_threshold(self):
        params = init_params(1, 1, np.random.default_rng(19))
        grad = np.where(np.arange(params.theta.size) % 3, 10.0, -10.0)
        norm = adam_step(params, grad, *zero_moments(params), 1, TrainConfig(hidden=1), adam_scratch(params))
        assert norm == pytest.approx(math.sqrt(100.0 * grad.size))
        new_norm = math.sqrt(float(np.sum(grad**2)))
        assert new_norm == pytest.approx(5.0, abs=1e-12)


def sinusoid_partitions(n=120, lookback=12):
    series = sinusoid_series(n=n)
    w = make_windows(series, "Signal", WindowSpec(lookback, "univariate"))
    return split_train_test(w, 0.8)


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        train_part, _ = sinusoid_partitions()
        cfg = TrainConfig(hidden=4, epochs=0, seed=3)
        model = train(train_part, cfg)
        assert model.loss_history == []
        fresh = init_params(1, 4, np.random.default_rng(3))
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
        # the input columns of the gate matrix (bias, 1 vs 5, then 4 recurrent).
        uni_model = train(sinusoid_partitions()[0], TrainConfig(hidden=4, epochs=1, seed=0))
        truth, _ = generate(SynthConfig(seed=0, months=40, provinces=("Alpha",), missing_rate=0.0))
        w = make_windows(truth, "Alpha", WindowSpec(12, "multivariate"))
        multi_part, _ = split_train_test(w, 0.8)
        multi_model = train(multi_part, TrainConfig(hidden=4, epochs=1, seed=0))
        for (name, a), (_, b) in zip(uni_model.params.tensors(), multi_model.params.tensors()):
            if name == "w":
                assert a.shape == (16, 1 + 1 + 4)
                assert b.shape == (16, 1 + 5 + 4)
            else:
                assert a.shape == b.shape


class TestPredict:
    def test_clamped_at_zero(self):
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=4, epochs=0, seed=0))
        model.params.head[0] = -100.0  # force a hugely negative scaled output
        preds = predict(model, train_part.inputs)
        assert np.all(preds == 0.0)

    def test_deterministic(self):
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=4, epochs=5, seed=0))
        assert np.array_equal(predict(model, train_part.inputs), predict(model, train_part.inputs))


class TestForecastHorizon:
    def make_model(self):
        series = sinusoid_series(n=100)
        w = make_windows(series, "Signal", WindowSpec(12, "univariate"))
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

    def test_recursive_windows_feed_back_earlier_predictions(self, monkeypatch):
        # Climate varies, so every cell of a window is checked against its
        # own observed value.
        base, t = sinusoid_series(n=100), np.arange(100)
        climate = np.stack([20.0 + t % 5, 100.0 + 3 * t % 17, 70.0 + t % 3], axis=-1)[None]
        series = Dataset(base.provinces, base.start, climate, base.population, base.cases)
        windows = make_windows(series, "Signal", WindowSpec(12, "multivariate"))
        model = train(split_train_test(windows, 0.8)[0], TrainConfig(hidden=4, epochs=5, seed=1))
        seen, scale_inputs = [], lstm.scale_inputs
        monkeypatch.setattr(
            lstm, "scale_inputs", lambda w, scaler, inputs: seen.append(inputs.copy()) or scale_inputs(w, scaler, inputs)
        )
        months, _, predicted = forecast_test_horizon(model, series, recursive=True)
        split = windows.samples - len(months)
        assert len(seen) == len(months) == 18
        for k, window in enumerate(seen):
            fed, observed = min(k, 12), windows.inputs[split + k]
            assert window.shape == (1, *observed.shape)
            assert np.array_equal(window[0, 12 - fed :, -1], predicted[k - fed : k])
            assert np.array_equal(window[0, : 12 - fed], observed[: 12 - fed])
            assert np.array_equal(window[0, 12 - fed :, :-1], observed[12 - fed :, :-1])

    def test_never_scores_training_months(self):
        # 100 months from 2000-01 with lookback 12 give 88 windows; the first
        # 70 train, so the last training target is month 82 (2006-10). On
        # the first 80 months a re-derived 0.8 split would score 2005-07 ..
        # 2006-08, all of them training months.
        series = sinusoid_series(n=100)
        train_part, _ = split_train_test(make_windows(series, "Signal", WindowSpec(12, "univariate")), 0.8)
        model = train(train_part, TrainConfig(hidden=2, epochs=0, seed=1))
        assert str(model.train_end) == "2006-10"
        with pytest.raises(DataError, match="after the model's last training month 2006-10"):
            forecast_test_horizon(model, month_slice(series, None, 80))
        months, _, _ = forecast_test_horizon(model, month_slice(series, None, 90))
        assert [str(m) for m in months] == [str(m) for m in series.months()[82:90]]

    def test_recursive_refuses_a_horizon_after_a_gap(self):
        # Trained to 2006-10; a series from 2007-01 would feed the observed
        # cases of 2007-01..2007-12 into the first recursive windows.
        series = sinusoid_series(n=100)
        train_part, _ = split_train_test(make_windows(series, "Signal", WindowSpec(12, "univariate")), 0.8)
        model = train(train_part, TrainConfig(hidden=2, epochs=0, seed=1))
        late = month_slice(series, 84)
        assert str(late.start) == "2007-01"
        with pytest.raises(DataError, match="must start at 2006-11"):
            forecast_test_horizon(model, late, recursive=True)
        assert len(forecast_test_horizon(model, late)[0]) == 4
        months, _, _ = forecast_test_horizon(model, month_slice(series, 70), recursive=True)
        assert str(months[0]) == "2006-11"


LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
MODEL_KEYS = ["format", "region", "variant", "lookback", "hidden", "train_end",
              "w", "head", "input_mins", "input_maxs", "target_mins", "target_maxs", "sha256"]


def model_bits(model):
    """Everything ``load_model`` reads back, floats as bytes."""
    scalers = (model.input_scaler, model.target_scaler)
    return (
        bits(a for _, a in model.params.tensors()),
        bits(a for s in scalers for a in (s.mins, s.maxs)),
        (model.spec, model.train_end, model.region),
    )


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
        assert loaded.region == model.region == "Signal"
        assert np.array_equal(loaded.input_scaler.mins, model.input_scaler.mins)
        assert np.array_equal(loaded.input_scaler.maxs, model.input_scaler.maxs)
        assert np.array_equal(loaded.target_scaler.mins, model.target_scaler.mins)
        assert np.array_equal(loaded.target_scaler.maxs, model.target_scaler.maxs)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_is_bit_identical(self, tmp_path_factory, data):
        # A model file's feature count is the one its variant windows.
        variant, hidden = data.draw(st.sampled_from(VARIANTS)), data.draw(st.integers(1, 6))
        features = WindowSpec(1, variant).feature_width
        finite = st.floats(allow_nan=False, allow_infinity=False)
        params = LstmParams(
            **{name: data.draw(arrays(np.float64, shape, elements=finite))
               for name, shape in LstmParams.shapes(features, hidden).items()}
        )
        # A model file's scaler bounds are at most MAX_MAGNITUDE in size, as
        # the scalers' training data is.
        bounded = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)
        scalers = []
        for width in (features, 1):
            a, b = (data.draw(arrays(np.float64, width, elements=bounded)) for _ in range(2))
            scalers.append(MinMaxScaler(np.minimum(a, b), np.maximum(a, b)))
        region = data.draw(st.text() | st.sampled_from(["Gitega", "a,b", "x = y", "#1", "a # b", "=", " Ngozi"]))
        model = TrainedModel(
            params=params,
            spec=WindowSpec(data.draw(st.integers(1, 10**6)), variant),
            input_scaler=scalers[0],
            target_scaler=scalers[1],
            train_end=MonthKey(data.draw(st.integers(-10**5, 10**5)), data.draw(st.integers(1, 12))),
            region=region,
        )
        path = tmp_path_factory.mktemp("model") / "model.txt"
        if not region or region != region.strip() or any(br in region for br in LINE_BREAKS):
            with pytest.raises(DataError, match="cannot be written on one line of a model file"):
                save_model(model, path)
            assert not path.exists()
            return
        save_model(model, path)
        assert model_bits(load_model(path)) == model_bits(model)

    @pytest.mark.parametrize("line_break", LINE_BREAKS)
    def test_region_with_a_line_break_is_refused(self, tmp_path, line_break):
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=2, epochs=0, seed=1))
        model.region = f"Gi{line_break}tega"
        with pytest.raises(DataError, match="cannot be written on one line"):
            save_model(model, tmp_path / "m.model")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "key, bound", [("target_maxs", 1e200), ("input_mins", -1e200), ("target_maxs", math.nan)]
    )
    def test_scaler_bound_beyond_the_magnitude_bound_is_refused(self, tmp_path, key, bound):
        # load_model would refuse the file, so save_model does not write it.
        train_part, _ = sinusoid_partitions()
        model = train(train_part, TrainConfig(hidden=2, epochs=0, seed=1))
        label, end = key.split("_")
        scaler = getattr(model, f"{label}_scaler")
        getattr(scaler, end)[0] = bound
        with pytest.raises(DataError) as info:
            save_model(model, tmp_path / "m.model")
        assert str(info.value) == f"{key} must be at most 1e100 in magnitude"
        assert list(tmp_path.iterdir()) == []

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
        assert [line.partition(" = ")[0] for line in lines] == MODEL_KEYS
        path = tmp_path / "cut.txt"
        for keep in range(len(lines)):
            path.write_text("".join(lines[:keep]))
            if keep == 0:
                message = "line 1: not a 'malaria-forecast model 4' file"
            else:
                message = f"line {keep + 1}: expected {MODEL_KEYS[keep]!r}, got the end of the file"
            with pytest.raises(DataError, match=f"^{re.escape(f'{path} {message}')}$"):
                load_model(path)

    @pytest.mark.parametrize(
        "line_no, edit, message",
        [
            (3, lambda v: ["bogus"], "line 3: variant must be one of"),
            (4, lambda v: ["twelve"], "line 4: lookback must be a positive integer"),
            (6, lambda v: ["2018-13"], "line 6: train_end must be a YYYY-MM month"),
            (6, lambda v: ["-0001-10"], "line 6: train_end must be a YYYY-MM month"),  # not as str(MonthKey)
            (7, lambda v: ["0xZZp+0", *v[1:]], "line 7: malformed hex float"),  # tensor w
            (7, lambda v: ["0x1p+1024", *v[1:]], "line 7: hex float beyond the 64-bit float range"),
            (8, lambda v: ["inf", *v[1:]], "line 8: non-finite value"),  # tensor head
            (8, lambda v: [*v, v[0]], "line 8: expected 3 values, got 4"),  # head at H = 2
            (9, lambda v: ["-0x1p+400", *v[1:]], "line 9: input_mins must be at most 1e100 in magnitude"),
            (9, lambda v: ["-0x1p99999", *v[1:]], "line 9: hex float beyond the 64-bit float range"),
            (12, lambda v: ["-0x1p+10"], "line 12: scaler max must be >= min"),  # target_maxs
            (13, lambda v: ["0"], "line 13: checksum mismatch"),
        ],
        ids=["variant", "lookback", "train_end", "train_end-padded", "hex-float", "hex-overflow", "non-finite",
             "count", "scaler-magnitude", "scaler-overflow", "scaler-bounds", "checksum"],
    )
    def test_bad_token_names_the_line(self, tmp_path, line_no, edit, message):
        # ``edit`` maps the tokens of the line's value to new ones.
        lines = self.small_model_lines(tmp_path)
        key, _, value = lines[line_no - 1].rstrip("\n").partition(" = ")
        lines[line_no - 1] = f"{key} = {' '.join(edit(value.split()))}\n"
        path = tmp_path / "bad.txt"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=f"^{re.escape(f'{path} {message}')}"):
            load_model(path)

    @pytest.mark.parametrize("key", ["w", "head", "input_mins", "input_maxs", "target_mins", "target_maxs"])
    @pytest.mark.parametrize(
        "token, message",
        [
            ("0x1p+1024", "hex float beyond the 64-bit float range"),
            ("-0x1p99999", "hex float beyond the 64-bit float range"),
            # A bare decimal reads as hex: 257 nines are 0x99…9, above 2**1024.
            ("9" * 257, "hex float beyond the 64-bit float range"),
            ("inf", "non-finite value"),
            ("0x", "malformed hex float"),
        ],
        ids=["above", "below", "bare-digits", "inf", "no-digits"],
    )
    def test_out_of_range_float_names_its_line(self, tmp_path, key, token, message):
        # The first value of the line is replaced and the digest recomputed,
        # so only the value can fail.
        lines = self.small_model_lines(tmp_path)
        line_no = MODEL_KEYS.index(key) + 1
        lines[line_no - 1] = f"{key} = {' '.join([token, *lines[line_no - 1].split()[3:]])}\n"
        body = "".join(lines[:-1])
        path = tmp_path / "bad.txt"
        path.write_text(f"{body}sha256 = {hashlib.sha256(body.encode()).hexdigest()}\n")
        with pytest.raises(DataError) as info:
            load_model(path)
        assert str(info.value) == f"{path} line {line_no}: {message}"

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # A bad variant on line 3 of a file cut before its sha256 line.
        lines = self.small_model_lines(tmp_path)
        lines[2] = "variant = bogus\n"
        path = tmp_path / "bad.txt"
        path.write_text("".join(lines[:-1]))
        with pytest.raises(DataError, match=f"^{re.escape(f'{path} line 3: variant must be one of')}"):
            load_model(path)

    def test_flipped_hex_digit_fails_the_checksum(self, tmp_path):
        lines = self.small_model_lines(tmp_path)
        token = lines[6].split()[2]  # first weight of tensor w
        mantissa_end = token.index("p") - 1
        flipped = "%x" % ((int(token[mantissa_end], 16) + 1) % 16)
        lines[6] = lines[6].replace(token, token[:mantissa_end] + flipped + token[mantissa_end + 1 :], 1)
        path = tmp_path / "flipped.txt"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match="line 13: checksum mismatch"):
            load_model(path)

    def test_only_whitespace_around_the_equals_sign_is_not_covered(self, tmp_path):
        lines = self.small_model_lines(tmp_path)
        path = tmp_path / "model.txt"
        path.write_text("".join(lines))
        original = load_model(path)
        path.write_text("".join(line.replace(" = ", "\t=  ", 1) for line in lines))
        assert model_bits(load_model(path)) == model_bits(original)
        for k in (1, 2):  # the region, then the variant, padded inside
            changed = lines.copy()
            changed[k] = changed[k].replace("i", "i ", 1)
            path.write_text("".join(changed))
            with pytest.raises(DataError):
                load_model(path)

    def test_content_after_the_sha256_line_is_refused(self, tmp_path):
        lines = self.small_model_lines(tmp_path)
        path = tmp_path / "model.txt"
        path.write_text("".join(lines) + "end = 1\n")
        with pytest.raises(DataError, match="line 14: 'end' after the sha256 line"):
            load_model(path)

    def test_non_utf8_file_names_the_line(self, tmp_path):
        lines = self.small_model_lines(tmp_path)
        path = tmp_path / "latin1.txt"
        path.write_bytes("".join(lines[:2]).encode() + b"variant = \xe9\n" + "".join(lines[3:]).encode())
        with pytest.raises(DataError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: not UTF-8 after line 2: invalid continuation byte"

    def test_format_1_is_refused(self, tmp_path):
        # Formats 1 and 2 began with a bare "malaria-forecast model <n>" line;
        # format 3 began with a format line, like format 4.
        lines = self.small_model_lines(tmp_path)
        path = tmp_path / "old.txt"
        for first, message in [
            ("malaria-forecast model 1", "expected key = value, got 'malaria-forecast model 1'"),
            ("malaria-forecast model 2", "expected key = value, got 'malaria-forecast model 2'"),
            ("format = malaria-forecast model 2", "not a 'malaria-forecast model 4' file"),
            ("format = malaria-forecast model 3", "not a 'malaria-forecast model 4' file"),
        ]:
            path.write_text("".join([first + "\n"] + lines[1:]))
            with pytest.raises(DataError, match=f"^{re.escape(f'{path} line 1: {message}')}$"):
                load_model(path)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small model of a region whose name holds ``,``, ``=`` and ``#``,
    and its file's bytes."""
    train_part, _ = sinusoid_partitions(n=40)
    model = train(train_part, TrainConfig(hidden=2, epochs=2, seed=5))
    model.region = "Gitega, = #2"
    path = tmp_path_factory.mktemp("saved") / "m.model"
    save_model(model, path)
    return model, path.read_bytes()


@st.composite
def mutated_model(draw, data):
    for _ in range(draw(st.integers(1, 3))):
        lines = data.splitlines(keepends=True) or [b""]
        k = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["truncate", "flip", "drop", "duplicate", "swap", "append"]))
        if action == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        elif action == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
        elif action == "drop":
            del lines[k]
        elif action == "duplicate":
            lines.insert(k, lines[k])
        elif action == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            extra = draw(st.sampled_from(["end", "sha256 = 0", "# note", "", "w = 0x0p+0"]) | st.text(max_size=8))
            lines.append(extra.encode() + b"\n")
        if action in ("drop", "duplicate", "swap", "append"):
            data = b"".join(lines)
    return data


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_mutated_model_raises_only_data_error(tmp_path_factory, saved_model, data):
    model, original = saved_model
    path = tmp_path_factory.mktemp("mutant") / "m.model"
    path.write_bytes(data.draw(mutated_model(original)))
    try:
        loaded = load_model(path)
    except DataError as exc:
        assert str(exc).startswith(str(path))
        return
    assert model_bits(loaded) == model_bits(model)
