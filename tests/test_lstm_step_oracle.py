"""Property test: the LSTM training step against an allocating reference.

The reference is the step as it was before it ran inside its workspace:
each elementwise product is a fresh temporary, each timestep rebuilds its
gate views with ``reshape``, the gradient is a fresh ``concatenate``, and
the backward loop also runs the recurrent GEMM and ``dc *= f`` at t = 0,
back into the zero initial state. Every operation of the step under test
has the same operands in the same order, so predictions, every workspace
array, the gradient, its norm before the clip and Adam's theta, m and v
must match bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malaria_forecast.errors import ShapeError
from malaria_forecast.lstm import LstmParams, TrainConfig, adam_step, backward, forward, init_params

ARRAYS = ("xh", "gates", "c", "tanh_c", "dz", "dw")


@dataclass
class RefCache:
    xh: np.ndarray  # (L + 1, 1 + F + H, n)
    gates: np.ndarray  # (L, 4H, n): activated i, f, g, o blocks
    c: np.ndarray  # (L + 1, H, n)
    tanh_c: np.ndarray  # (L, H, n)
    dz: np.ndarray  # (L, 4H, n)
    dw: np.ndarray  # (L, 4H, 1 + F + H)
    features: int
    params_id: int = 0

    @classmethod
    def empty(cls, n, length, features, hidden):
        width = 1 + features + hidden
        xh = np.zeros((length + 1, width, n))
        xh[:, 0] = 1.0
        return cls(
            xh=xh,
            gates=np.empty((length, 4 * hidden, n)),
            c=np.zeros((length + 1, hidden, n)),
            tanh_c=np.empty((length, hidden, n)),
            dz=np.empty((length, 4 * hidden, n)),
            dw=np.empty((length, 4 * hidden, width)),
            features=features,
        )

    @property
    def x(self):
        return self.xh[:-1, 1 : 1 + self.features]

    @property
    def h(self):
        return self.xh[:, 1 + self.features :]


def ref_forward(params: LstmParams, window, cache: RefCache):
    x = np.asarray(window, dtype=np.float64)
    n, length, feat = x.shape
    hdim = params.hidden
    if cache.gates.shape != (length, 4 * hdim, n) or cache.features != feat:
        raise ShapeError("cache does not fit")
    cache.params_id = id(params)
    w = params.w * np.repeat([0.5, 0.5, 1.0, 0.5], hdim)[:, None]
    np.copyto(cache.x, x.transpose(1, 2, 0))
    xh, c, h, tanh_c = cache.xh, cache.c, cache.h, cache.tanh_c
    for t in range(length):
        z = cache.gates[t]
        np.matmul(w, xh[t], out=z)
        np.tanh(z, out=z)
        z[: 2 * hdim] *= 0.5
        z[: 2 * hdim] += 0.5
        z[3 * hdim :] *= 0.5
        z[3 * hdim :] += 0.5
        i, f, g, o = z.reshape(4, hdim, n)
        np.multiply(f, c[t], out=c[t + 1])
        c[t + 1] += i * g
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=h[t + 1])
    return params.head[1:] @ h[length] + params.head[0], cache


def ref_backward(params: LstmParams, cache: RefCache, d_predictions):
    assert cache.params_id == id(params)
    d_pred = np.atleast_1d(np.asarray(d_predictions, dtype=np.float64))
    length, _, n = cache.gates.shape
    hdim = params.hidden
    w_h_t = params.w[:, 1 + cache.features :].T
    c, dz = cache.c, cache.dz

    dh = np.outer(params.head[1:], d_pred)
    dc = np.zeros_like(dh)
    for t in range(length - 1, -1, -1):
        i, f, g, o = cache.gates[t].reshape(4, hdim, n)
        dz_i, dz_f, dz_g, dz_o = dz[t].reshape(4, hdim, n)
        tanh_c = cache.tanh_c[t]

        np.multiply(dh, o, out=dh)
        np.multiply(dh, tanh_c, out=dz_o)
        dz_o *= 1.0 - o
        dc += dh * (1.0 - tanh_c * tanh_c)
        np.multiply(dc, c[t], out=dz_f)
        dz_f *= f
        dz_f *= 1.0 - f
        np.multiply(dc, i, out=dz_g)
        np.multiply(dc, g, out=dz_i)
        dz_i *= i
        dz_i *= 1.0 - i
        dz_g *= 1.0 - g * g

        np.matmul(w_h_t, dz[t], out=dh)
        dc *= f

    np.matmul(dz, cache.xh[:-1].transpose(0, 2, 1), out=cache.dw)
    return np.concatenate([cache.dw.sum(axis=0), [d_pred.sum()], cache.h[length] @ d_pred], axis=None)


def ref_clip_gradients(grad, max_norm):
    total = math.sqrt(float(np.sum(grad * grad)))
    if total > max_norm:
        grad *= max_norm / total
    return total


def ref_adam_step(params: LstmParams, grad, m, v, t, cfg: TrainConfig):
    ref_clip_gradients(grad, cfg.clip_norm)
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad**2
    params.theta -= cfg.learning_rate * (m / (1.0 - cfg.beta1**t)) / (np.sqrt(v / (1.0 - cfg.beta2**t)) + cfg.eps)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 250))
    return (
        n,
        draw(st.integers(1, 16)),  # L = 1: the first step is also the last
        draw(st.sampled_from([1, 5])),
        draw(st.integers(1, 40)),
        draw(st.integers(1, n)),  # a batch size that may leave a short last batch
        draw(st.sampled_from([0.0, 100.0])),  # targets near 100 make every clip fire
        draw(st.integers(0, 2**32 - 1)),
    )


def bits(a):
    return np.asarray(a).tobytes()


@settings(max_examples=60, deadline=None)
@given(problems())
@example((250, 16, 5, 40, 7, 100.0, 1))  # the largest shape, with a short last batch of 5
@example((1, 1, 1, 1, 1, 0.0, 2))
def test_step_is_bit_identical_to_the_allocating_reference(problem):
    n, length, features, hidden, batch, offset, seed = problem
    rng = np.random.default_rng(seed)
    params = init_params(features, hidden, rng)
    params.theta *= rng.uniform(0.5, 3.0)
    ref_params = LstmParams(params.w, params.head)
    x = rng.uniform(-2.0, 2.0, size=(n, length, features))
    y = offset + rng.uniform(-1.0, 1.0, size=n)
    cfg = TrainConfig(hidden=hidden)
    m, v = np.zeros_like(params.theta), np.zeros_like(params.theta)
    scratch = np.empty((2, params.theta.size))  # reused by every step, as in ``train``
    ref_m, ref_v = np.zeros_like(m), np.zeros_like(v)
    # The first full batch, then the last batch, which is short unless
    # ``batch`` divides n, then both again on their reused workspaces.
    first, last = slice(0, batch), slice(n - (n % batch or batch), n)
    workspaces, ref_caches, clipped = {}, {}, []
    for step, rows in enumerate([first, last, first, last], start=1):
        size = rows.stop - rows.start
        if size not in workspaces:
            workspaces[size] = None
            ref_caches[size] = RefCache.empty(size, length, features, hidden)
        preds, workspaces[size] = forward(params, x[rows], workspaces[size])
        ref_preds, ref_cache = ref_forward(ref_params, x[rows], ref_caches[size])
        assert bits(preds) == bits(ref_preds)
        d_pred = 2.0 * (preds - y[rows]) / size
        grad = backward(params, workspaces[size], d_pred)
        ref_grad = ref_backward(ref_params, ref_cache, d_pred)
        assert bits(grad) == bits(ref_grad)
        for name in ARRAYS:
            assert bits(getattr(workspaces[size], name)) == bits(getattr(ref_cache, name)), name
        ref_norm = math.sqrt(float(np.sum(ref_grad * ref_grad)))
        clipped.append(ref_norm > cfg.clip_norm)
        norm = adam_step(params, grad, m, v, step, cfg, scratch)
        ref_adam_step(ref_params, ref_grad, ref_m, ref_v, step, cfg)
        assert norm.hex() == ref_norm.hex()
        assert bits(grad) == bits(ref_grad)
        for got, expected in ((params.theta, ref_params.theta), (m, ref_m), (v, ref_v)):
            assert bits(got) == bits(expected)
    if offset:
        assert all(clipped)
