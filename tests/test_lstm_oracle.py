"""Property test: the fused-gate LSTM against a per-gate reference.

The reference keeps each gate's input weights W, recurrent weights U and
bias b as separate tensors, runs four GEMM pairs per step, and uses the
branchy stable logistic ``1/(1+exp(-z))``. The code under test stacks the
gates into one (4H, F+H) matrix, projects every step's input before the
recurrence, and uses ``½·tanh(z/2) + ½``. The two sum in different orders,
so predictions and gradients are compared to a relative tolerance; the
initial values, drawn from the same stream, must match bit for bit.

The relative tolerance (1e-12) has an absolute floor (1e-14) for entries
that cancel to near zero. Without it, a hidden size of 1 with a nearly shut
output gate (σ(z) ≈ 1e-5, where the two logistic forms agree to 1e-16
absolutely but not relatively) missed 1e-12 in a tensor norm in about one
case in 30,000; elementwise, the error beyond 1e-12·|expected| never
exceeded 3e-16 in 80,000 cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from malaria_forecast.core_math import Rng
from malaria_forecast.lstm import backward, forward, init_params

GATES = "ifgo"


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_init(features, hidden, rng):
    """Per-gate init in the order the fused init must reproduce."""
    k = 1.0 / math.sqrt(hidden)
    p = {}
    for gate in GATES:
        p[f"w_{gate}"] = rng.uniform(-k, k, size=(hidden, features))
        p[f"u_{gate}"] = rng.uniform(-k, k, size=(hidden, hidden))
        p[f"b_{gate}"] = rng.uniform(-k, k, size=hidden)
    p["w_y"] = rng.uniform(-k, k, size=hidden)
    p["b_y"] = rng.uniform(-k, k, size=1)
    p["b_f"] = np.ones(hidden)
    return p


def pack(p):
    """Per-gate tensors -> the fused layout: rows i, f, g, o; columns x then h."""
    return {
        "w": np.vstack([np.hstack([p[f"w_{gate}"], p[f"u_{gate}"]]) for gate in GATES]),
        "b": np.concatenate([p[f"b_{gate}"] for gate in GATES]),
        "w_y": p["w_y"],
        "b_y": p["b_y"],
    }


def unpack(params):
    h, f = params.hidden, params.features
    p = {"w_y": params.w_y, "b_y": params.b_y}
    for k, gate in enumerate(GATES):
        rows = slice(k * h, (k + 1) * h)
        p[f"w_{gate}"] = params.w[rows, :f]
        p[f"u_{gate}"] = params.w[rows, f:]
        p[f"b_{gate}"] = params.b[rows]
    return p


def ref_forward(p, x):
    n, length, _ = x.shape
    hdim = p["w_y"].shape[0]
    h = np.zeros((n, hdim))
    c = np.zeros((n, hdim))
    cache = {key: [] for key in ("i", "f", "g", "o", "c", "tanh_c", "h")}
    for t in range(length):
        xt = x[:, t, :]
        i = ref_sigmoid(xt @ p["w_i"].T + h @ p["u_i"].T + p["b_i"])
        f = ref_sigmoid(xt @ p["w_f"].T + h @ p["u_f"].T + p["b_f"])
        g = np.tanh(xt @ p["w_g"].T + h @ p["u_g"].T + p["b_g"])
        o = ref_sigmoid(xt @ p["w_o"].T + h @ p["u_o"].T + p["b_o"])
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        for key, value in zip(cache, (i, f, g, o, c, tanh_c, h)):
            cache[key].append(value)
    return h @ p["w_y"] + p["b_y"][0], {key: np.stack(v, axis=1) for key, v in cache.items()}


def ref_backward(p, x, cache, d_pred):
    n, length, _ = x.shape
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    grads["w_y"] = cache["h"][:, -1].T @ d_pred
    grads["b_y"] = np.array([d_pred.sum()])
    dh = np.outer(d_pred, p["w_y"])
    dc = np.zeros_like(dh)
    for t in range(length - 1, -1, -1):
        i, f, g, o = (cache[key][:, t] for key in "ifgo")
        tanh_c = cache["tanh_c"][:, t]
        c_prev = cache["c"][:, t - 1] if t > 0 else np.zeros_like(dc)
        h_prev = cache["h"][:, t - 1] if t > 0 else np.zeros_like(dh)
        xt = x[:, t, :]
        dz_o = dh * tanh_c * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tanh_c**2)
        dz_f = dc * c_prev * f * (1.0 - f)
        dz_i = dc * g * i * (1.0 - i)
        dz_g = dc * i * (1.0 - g**2)
        for gate, dz in (("i", dz_i), ("f", dz_f), ("g", dz_g), ("o", dz_o)):
            grads[f"w_{gate}"] += dz.T @ xt
            grads[f"u_{gate}"] += dz.T @ h_prev
            grads[f"b_{gate}"] += dz.sum(axis=0)
        dh = dz_i @ p["u_i"] + dz_f @ p["u_f"] + dz_g @ p["u_g"] + dz_o @ p["u_o"]
        dc = dc * f
    return grads


def assert_close(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-14)


@st.composite
def problems(draw):
    features = draw(st.integers(1, 5))
    hidden = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    length = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    return features, hidden, n, length, seed


@settings(max_examples=200, deadline=None)
@given(problems())
def test_init_packs_the_per_gate_draws_bit_for_bit(problem):
    features, hidden, _, _, seed = problem
    params = init_params(features, hidden, Rng(seed))
    expected = pack(ref_init(features, hidden, Rng(seed)))
    for name, arr in params.tensors():
        assert np.array_equal(arr, expected[name]), name


@settings(max_examples=200, deadline=None)
@given(problems())
def test_forward_and_gradients_match_the_per_gate_reference(problem):
    features, hidden, n, length, seed = problem
    rng = Rng(seed)
    params = init_params(features, hidden, rng)
    # Spread the weights so that gates leave the linear region.
    for _, arr in params.tensors():
        arr *= rng.uniform(0.5, 3.0)
    x = rng.uniform(-2.0, 2.0, size=(n, length, features))
    d_pred = rng.uniform(-1.0, 1.0, size=n)

    preds, cache = forward(params, x)
    grads = backward(params, cache, d_pred)
    ref = unpack(params)
    ref_preds, ref_cache = ref_forward(ref, x)
    ref_grads = pack(ref_backward(ref, x, ref_cache, d_pred))

    assert_close(preds, ref_preds)
    assert set(grads) == {name for name, _ in params.tensors()}
    for name in grads:
        assert_close(grads[name], ref_grads[name])

