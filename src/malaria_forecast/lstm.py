"""LSTM forecaster: cell, backpropagation through time, Adam, gradient check.

Single LSTM layer plus a linear output head, trained on min-max scaled
windows with full-batch Adam by default. The backward pass is an exact
reverse-mode derivation through the unrolled sequence; ``gradient_check``
verifies it against central finite differences, which only ever call the
forward pass.

The parameters are one vector, ``theta`` (layout in :class:`LstmParams`):
the gate matrix ``w`` and the output head ``head``, each with its bias first,
are views of it, and the gradient and Adam's moments are vectors laid out
like it. The four gates share one weight matrix and one activation: ``forward``
halves the logistic gates' rows exactly, so one tanh serves all four gates.
Activations are stored batch last in a workspace (:class:`ForwardCache`),
so each step's gates come from one GEMM ``w @ [1; x_t; h_t]`` and every gate
block is a contiguous array; the workspace also holds every array that the
backward pass writes (``train`` holds Adam's), so a training step runs GEMMs,
copies and ufuncs into preallocated arrays, apart from its batch-length vectors.

The univariate and multivariate models share every routine here; they differ
only in the feature width of their windows (1 vs 5).

A model knows the region it was trained on, and :func:`forecast_test_horizon`
windows that region. :func:`save_model` writes model format 4, ``key = value``
lines: the region, spec, hidden size and training boundary, the two tensors and
the scalers in hex floats, and a digest. :func:`load_model` reads them in one
pass, in file order, and names the line of the first fault.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core_math import AT_LEAST_1, NONE_OR_AT_LEAST_1, OPEN_UNIT, POSITIVE_FINITE, MinMaxScaler, check_fields, ruled
from .data_model import MAGNITUDE_RULE, MAX_MAGNITUDE, Dataset, MonthKey, atomic_write, read_kv
from .errors import DataError, DivergenceError, ShapeError
from .windowing import VARIANTS, WindowSpec, WindowedDataset, make_windows, scale_inputs


class LstmParams:
    """Fused gate weights and the output head, each with its bias first,
    stored as one float64 vector ``theta``: ``w`` row-major, then ``head``.

    ``w`` is (4H, 1+F+H): row blocks i, f, g, o of H rows each (input gate,
    forget gate, cell candidate, output gate); column 0 is the bias, then
    the F input features, then the H recurrent inputs. ``head`` is (1+H,):
    the output bias, then the weights of the last hidden state. Both are
    views of ``theta``, so writing into them writes ``theta``. Both are
    finite, as :func:`init_params` and :func:`load_model` build them. All four
    blocks use one activation, s·tanh(s·z) + (1 − s): with s = ½ it is the
    logistic function (σ(z) = ½·tanh(z/2) + ½), used on i, f and o; with
    s = 1 it is tanh, used on g.
    """

    def __init__(self, w: np.ndarray, head: np.ndarray):
        hidden, features = head.shape[0] - 1, w.shape[1] - head.shape[0]
        for (name, shape), arr in zip(self.shapes(features, hidden).items(), (w, head)):
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
        self.hidden, self.features = hidden, features
        self.theta = np.concatenate([w, head], axis=None, dtype=np.float64)

    @staticmethod
    def shapes(features: int, hidden: int) -> dict[str, tuple[int, ...]]:
        return {"w": (4 * hidden, 1 + features + hidden), "head": (1 + hidden,)}

    @property
    def w(self) -> np.ndarray:
        return self.theta[: -1 - self.hidden].reshape(4 * self.hidden, -1)

    @property
    def head(self) -> np.ndarray:
        return self.theta[-1 - self.hidden :]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [("w", self.w), ("head", self.head)]


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = ruled(32, AT_LEAST_1)
    epochs: int = ruled(300, (lambda v: v >= 0, "must be >= 0"))
    learning_rate: float = ruled(1e-3, POSITIVE_FINITE)
    beta1: float = ruled(0.9, OPEN_UNIT)
    beta2: float = ruled(0.999, OPEN_UNIT)
    eps: float = ruled(1e-8, POSITIVE_FINITE)
    batch_size: int | None = ruled(None, NONE_OR_AT_LEAST_1)  # None = full batch
    seed: int = 0
    clip_norm: float = ruled(5.0, POSITIVE_FINITE)

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainedModel:
    """Parameters, window spec and scalers of the model of ``region``;
    ``train_end`` is the month of the last training target, and forecasts
    score only the months after it."""

    params: LstmParams
    spec: WindowSpec
    input_scaler: MinMaxScaler
    target_scaler: MinMaxScaler
    train_end: MonthKey
    region: str
    loss_history: list[float] = field(default_factory=list)


def init_params(features: int, hidden: int, rng: np.random.Generator) -> LstmParams:
    """Uniform init in [-k, k] with k = 1/sqrt(hidden); forget bias set to +1
    afterwards so early cell state survives long windows.

    Values are drawn gate by gate (i, f, g, o), each gate's input weights,
    then its recurrent weights, then its bias; then the head's weights and
    last its bias.
    """
    k = 1.0 / math.sqrt(hidden)
    n_x, n_h = hidden * features, hidden * hidden
    w_x, w_h, b = np.split(rng.uniform(-k, k, size=(4, n_x + n_h + hidden)), [n_x, n_x + n_h], axis=1)
    w = np.hstack([b.reshape(-1, 1), w_x.reshape(-1, features), w_h.reshape(-1, hidden)])
    w[hidden : 2 * hidden, 0] = 1.0
    w_y = rng.uniform(-k, k, size=hidden)
    return LstmParams(w=w, head=np.concatenate([rng.uniform(-k, k, size=1), w_y]))


class ForwardCache:
    """The workspace of one batch shape, batch last: the activations that
    ``forward`` keeps for backpropagation through time, and every other
    array that ``forward`` and ``backward`` write, so that neither allocates
    an array longer than n on a reused workspace. Adam's arrays are ``train``'s.

    Every per-step block is one contiguous (rows, n) array. ``xh[t]`` is the
    gate input of step t, [1 ; x_t ; h_t] with h_t the state before the step:
    the row of ones carries the bias through the gate GEMM, and ``x`` and
    ``h`` are views of the other rows. ``c`` and ``h`` hold L + 1 states;
    index 0 is the zero initial state and is never written, and no
    gradient with respect to it is ever formed. The workspace also holds:

    - ``w``, the gate matrix with the logistic rows halved (``forward``);
    - ``dz``, dLoss/d(pre-activation), and ``dw``, the gradient of w at each
      step; ``dh`` and ``dc``, dLoss/dh and dLoss/dc of the step being
      differentiated; ``grad``, the gradient that ``backward`` returns;
    - ``tmp``, an (H, n) buffer for every elementwise temporary of both
      passes;
    - ``forward_steps`` and ``backward_steps``, each step's views for the
      two passes, built here once.

    ``train`` passes one workspace to every step of a batch size.
    """

    def __init__(self, n: int, length: int, features: int, hidden: int):
        width = 1 + features + hidden
        self.features, self.params_id = features, 0
        self.xh = np.zeros((length + 1, width, n))  # (L + 1, 1 + F + H, n)
        self.xh[:, 0] = 1.0
        self.x, self.h = self.xh[:-1, 1 : 1 + features], self.xh[:, 1 + features :]
        self.gates = np.empty((length, 4 * hidden, n))  # activated i, f, g, o blocks
        self.c = np.zeros((length + 1, hidden, n))
        self.tanh_c = np.empty((length, hidden, n))
        self.dz = np.empty((length, 4 * hidden, n))
        self.dw = np.empty((length, 4 * hidden, width))
        self.w = np.empty((4 * hidden, width))
        self.grad = np.empty(4 * hidden * width + 1 + hidden)
        self.dh, self.dc, self.tmp = np.empty((3, hidden, n))
        # One tuple of views per step; zip walks each array's first axis.
        c, h = list(self.c), list(self.h)
        self.forward_steps = list(
            zip(
                self.xh, self.gates, self.gates[:, : 2 * hidden], self.gates[:, 3 * hidden :],
                *_gate_blocks(self.gates), c, c[1:], self.tanh_c, h[1:],
            )
        )
        self.backward_steps = list(zip(*_gate_blocks(self.gates), c, self.tanh_c, self.dz, *_gate_blocks(self.dz)))


def _gate_blocks(a: np.ndarray) -> np.ndarray:
    """The i, f, g, o blocks of an (L, 4H, n) array: (4, L, H, n) views."""
    length, rows, n = a.shape
    return a.reshape(length, 4, rows // 4, n).transpose(1, 0, 2, 3)


def forward(params: LstmParams, window, cache: ForwardCache | None = None):
    """Thread the cell through a batch of windows from zero state; head off
    the last h.

    Takes an (n, L, features) batch and returns the (n,) predictions plus
    the workspace. A ``cache`` from an earlier call of the same shape is
    overwritten instead of allocating a new one.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"windows must be an (n, L, features) batch, got shape {x.shape}")
    n, length, feat = x.shape
    if feat != params.features:
        raise ShapeError(f"window has {feat} features, params expect {params.features}")
    hdim = params.hidden
    if cache is None:
        cache = ForwardCache(n, length, feat, hdim)
    elif cache.gates.shape != (length, 4 * hdim, n) or cache.features != feat:
        raise ShapeError(f"cache does not fit a ({n}, {length}, {feat}) batch at hidden size {hdim}")
    cache.params_id = id(params)
    # Halving the rows of the logistic gates is exact, so tanh of the folded
    # pre-activation is tanh(z/2), and ½·tanh(z/2) + ½ is the logistic σ(z).
    w, tmp = cache.w, cache.tmp
    np.copyto(w, params.w)
    w[: 2 * hdim] *= 0.5
    w[3 * hdim :] *= 0.5
    np.copyto(cache.x, x.transpose(1, 2, 0))
    for xh, z, z_if, z_o, i, f, g, o, c, c_next, tanh_c, h_next in cache.forward_steps:
        np.matmul(w, xh, out=z)
        np.tanh(z, out=z)
        z_if *= 0.5
        z_if += 0.5
        z_o *= 0.5
        z_o += 0.5
        np.multiply(f, c, out=c_next)
        c_next += np.multiply(i, g, out=tmp)
        np.tanh(c_next, out=tanh_c)
        np.multiply(o, tanh_c, out=h_next)
    return params.head[1:] @ cache.h[length] + params.head[0], cache


def loss_mse(predictions, targets) -> float:
    predictions = np.atleast_1d(np.asarray(predictions, dtype=np.float64))
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ValueError(
            f"predictions {predictions.shape} and targets {targets.shape} must match and be non-empty"
        )
    return float(np.mean((predictions - targets) ** 2))


def backward(params: LstmParams, cache: ForwardCache, d_predictions) -> np.ndarray:
    """Exact gradient of the loss w.r.t. ``params.theta``, in its layout:
    the workspace's ``grad``, which the next ``backward`` on that workspace
    overwrites.

    ``d_predictions`` is dLoss/dprediction per sample (for mean squared error
    over n samples: 2 * (pred - target) / n). Every product is written into
    the workspace. The loop stops after step 0's pre-activation gradients:
    the gradient with respect to the zero initial state is never formed,
    since nothing reads it.
    """
    if cache.params_id != id(params):
        raise ValueError("cache was produced by a different parameter set")
    d_pred = np.atleast_1d(np.asarray(d_predictions, dtype=np.float64))
    w, head, grad = params.w, params.head, cache.grad
    w_h_t = w[:, 1 + cache.features :].T
    dh, dc, tmp = cache.dh, cache.dc, cache.tmp

    # dh = head ⊗ d_pred from two broadcasting copies and one same-shape
    # product: a broadcasting ufunc would allocate numpy's iteration buffers.
    np.copyto(dh, head[1:, None])
    np.copyto(tmp, d_pred)
    dh *= tmp
    dc.fill(0.0)
    for t in range(len(cache.backward_steps) - 1, -1, -1):
        i, f, g, o, c, tanh_c, dz, dz_i, dz_f, dz_g, dz_o = cache.backward_steps[t]
        np.multiply(dh, o, out=dh)
        np.multiply(dh, tanh_c, out=dz_o)
        dz_o *= np.subtract(1.0, o, out=tmp)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dc += np.multiply(dh, tmp, out=tmp)
        np.multiply(dc, c, out=dz_f)
        dz_f *= f
        dz_f *= np.subtract(1.0, f, out=tmp)
        np.multiply(dc, i, out=dz_g)
        np.multiply(dc, g, out=dz_i)
        dz_i *= i
        dz_i *= np.subtract(1.0, i, out=tmp)
        dz_g *= np.subtract(1.0, np.multiply(g, g, out=tmp), out=tmp)
        if t:
            np.matmul(w_h_t, dz, out=dh)
            dc *= f

    # The gradient of w sums one GEMM per step (inner dimension n): OpenBLAS
    # rounds a single GEMM over all n * L columns differently for different
    # thread counts.
    np.matmul(cache.dz, cache.xh[:-1].transpose(0, 2, 1), out=cache.dw)
    np.sum(cache.dw, axis=0, out=grad[: w.size].reshape(w.shape))
    grad[w.size] = d_pred.sum()
    np.matmul(cache.h[-1], d_pred, out=grad[w.size + 1 :])
    return grad


def adam_step(
    params: LstmParams, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, cfg: TrainConfig, scratch: np.ndarray
) -> float:
    """Scale ``grad`` down in place to L2 norm ``cfg.clip_norm`` if it is
    larger, then update ``params.theta`` and the moments ``m`` and ``v``
    (vectors laid out like ``theta``, zero at the start) by bias-corrected
    Adam, all in place; t counts from 1. ``scratch``, two vectors of theta's
    size, takes every temporary. Returns the norm before the clip, a numpy
    sum (not a BLAS dot, so it does not depend on the BLAS thread count)."""
    step, denom = scratch
    norm = math.sqrt(float(np.sum(np.multiply(grad, grad, out=step))))
    if norm > cfg.clip_norm:
        grad *= cfg.clip_norm / norm
    m *= cfg.beta1
    m += np.multiply(1.0 - cfg.beta1, grad, out=step)
    v *= cfg.beta2
    np.square(grad, out=step)
    v += np.multiply(1.0 - cfg.beta2, step, out=step)
    np.divide(m, 1.0 - cfg.beta1**t, out=step)
    np.multiply(cfg.learning_rate, step, out=step)
    np.divide(v, 1.0 - cfg.beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    params.theta -= np.divide(step, denom, out=step)
    return norm


def train(windows: WindowedDataset, cfg: TrainConfig) -> TrainedModel:
    """Fit on a non-empty partition scaled by split_train_test; full-batch unless batch_size set.

    The loss history records the mean squared error seen in each epoch
    (before that epoch's update reaches the next one). Each batch size (the
    full batches and a short last one) gets one :class:`ForwardCache`,
    which every step of that size reuses for ``forward`` and ``backward``;
    minibatches gather their windows into one buffer, and ``adam_step``
    reuses one pair of scratch vectors. So once each batch size has had its
    first step, a step allocates no array longer than the batch.
    """
    X = windows.inputs
    y = windows.targets
    n = windows.samples
    rng = np.random.default_rng(cfg.seed)
    params = init_params(windows.spec.feature_width, cfg.hidden, rng)
    m, v = np.zeros_like(params.theta), np.zeros_like(params.theta)
    adam_scratch = np.empty((2, params.theta.size))
    history: list[float] = []
    step = 0
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    order = np.arange(n)
    # One workspace per batch size: the full batches and a short last one.
    # A minibatch's windows are gathered into the leading rows of one buffer.
    workspaces = {}
    gathered = np.empty((batch, *X.shape[1:])) if batch < n else None
    for epoch in range(cfg.epochs):
        if batch < n:
            rng.shuffle(order)
        epoch_loss = 0.0
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            if idx.size not in workspaces:
                workspaces[idx.size] = ForwardCache(idx.size, *X.shape[1:], cfg.hidden)
            # Every index is in range, so mode "clip" changes no value; it
            # only spares ``take`` a buffered copy of ``out``.
            window, target = (
                (X, y) if batch == n else (np.take(X, idx, axis=0, out=gathered[: idx.size], mode="clip"), y[idx])
            )
            preds, cache = forward(params, window, workspaces[idx.size])
            with np.errstate(over="ignore", invalid="ignore"):  # a diverged loss is checked below
                loss = loss_mse(preds, target)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            step += 1
            grad = backward(params, cache, 2.0 * (preds - target) / idx.size)
            adam_step(params, grad, m, v, step, cfg, adam_scratch)
            epoch_loss += loss * idx.size
        history.append(epoch_loss / n)
    return TrainedModel(
        params=params,
        spec=windows.spec,
        input_scaler=windows.input_scaler,
        target_scaler=windows.target_scaler,
        train_end=windows.months[-1],
        region=windows.province,
        loss_history=history,
    )


def predict(model: TrainedModel, windows) -> np.ndarray:
    """Forecast case counts for an (n, L, features) batch of scaled windows:
    forward pass, inverse transform, clamp at zero (case counts cannot be
    negative). DataError when a value overflows on the way, or a forecast is
    beyond MAX_MAGNITUDE, which a forecast file cannot hold."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            preds, _ = forward(model.params, windows)
            cases = model.target_scaler.inverse(preds[:, None]).ravel()
            if not (cases <= MAX_MAGNITUDE).all():
                raise FloatingPointError
    except FloatingPointError:
        raise DataError(f"{model.region} {model.spec.variant} model: forecasts exceed 1e100") from None
    return np.maximum(cases, 0.0)


def forecast_test_horizon(
    model: TrainedModel, dataset: Dataset, recursive: bool = False
) -> tuple[list[MonthKey], np.ndarray, np.ndarray]:
    """One-step-ahead forecasts for every month after the model's training.

    Rebuilds windows of ``model.region`` with the model's spec, keeps those
    whose target month comes after ``model.train_end``, scales with its own
    scalers, and returns (months, observed, predicted) in case counts. With
    ``recursive=True`` the case feature of each horizon window is replaced by
    the model's earlier predictions, so forecasts consume no observed cases
    beyond the training boundary; the horizon must then start at the
    month after ``model.train_end``, or a DataError is raised.
    """
    w = make_windows(dataset, model.region, model.spec)
    split = next((k for k, month in enumerate(w.months) if month > model.train_end), w.samples)
    if split == w.samples:
        raise DataError(
            f"{model.region} {model.spec.variant} model: series ends at {w.months[-1]}, "
            f"not after the model's last training month {model.train_end}"
        )
    months = w.months[split:]
    observed = w.targets[split:]
    if not recursive:
        return months, observed, predict(model, scale_inputs(w, model.input_scaler, w.inputs[split:]))
    if months[0] != model.train_end.next():
        raise DataError(
            f"{model.region} {model.spec.variant} model: recursive forecasts must start at "
            f"{model.train_end.next()}, the month after training, but the series' first horizon month is {months[0]}"
        )

    lookback = model.spec.lookback
    predicted = np.empty(len(months))
    raw = w.inputs[split:].copy()
    for k in range(len(months)):
        # The last ``fed`` positions of window k fall in the horizon: they get
        # the model's own earlier predictions instead of observed cases.
        fed = min(k, lookback)
        raw[k, lookback - fed :, -1] = predicted[k - fed : k]
        predicted[k] = predict(model, scale_inputs(w, model.input_scaler, raw[k : k + 1]))[0]
    return months, observed, predicted


def gradient_check(
    params: LstmParams, inputs, targets, epsilon: float = 1e-5
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    The numeric side only calls ``forward``/``loss_mse``, every forward in
    the workspace of the analytic one (``backward`` leaves its gradient in
    that workspace's ``grad``, which ``forward`` never writes). Returns, per
    parameter tensor, the relative error ||analytic - numeric|| /
    max(||analytic|| + ||numeric||, 1e-12).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    preds, cache = forward(params, inputs)
    analytic = backward(params, cache, 2.0 * (preds - targets) / targets.size)
    theta, numeric = params.theta, np.zeros_like(params.theta)
    for j in range(theta.size):
        saved = theta[j]
        theta[j] = saved + epsilon
        hi, _ = forward(params, inputs, cache)
        theta[j] = saved - epsilon
        lo, _ = forward(params, inputs, cache)
        theta[j] = saved
        numeric[j] = (loss_mse(hi, targets) - loss_mse(lo, targets)) / (2.0 * epsilon)

    errors = {}
    for name, part in (("w", slice(0, params.w.size)), ("head", slice(params.w.size, None))):
        a, num = analytic[part], numeric[part]
        denom = max(float(np.linalg.norm(a)) + float(np.linalg.norm(num)), 1e-12)
        errors[name] = float(np.linalg.norm(a - num)) / denom
    return errors


MODEL_FORMAT = "malaria-forecast model 4"
_POSITIVE = re.compile(r"[1-9][0-9]{0,17}")
# The keys of a model file, in file order.
_MODEL_KEYS = (
    "format", "region", "variant", "lookback", "hidden", "train_end",
    *LstmParams.shapes(1, 1),
    "input_mins", "input_maxs", "target_mins", "target_maxs", "sha256",
)


def _hex(values: np.ndarray) -> str:
    return " ".join(map(float.hex, values.ravel().tolist()))


def _digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def save_model(model: TrainedModel, path) -> None:
    """Write one ``key = value`` line each for ``format``, ``region``,
    ``variant``, ``lookback``, ``hidden`` and ``train_end``, the tensors
    ``w`` and ``head`` (flattened row-major; the variant sets the feature
    count), the scaler bounds ``input_mins``, ``input_maxs``, ``target_mins``
    and ``target_maxs``, and last ``sha256``, the digest of the lines above it.
    Floats are C99 hex literals, so the round trip is bit-exact. A region
    that would not read back as itself (one with a line break, or whitespace
    at either end) or a scaler bound beyond 1e100 raises DataError before writing."""
    region = model.region
    if region.splitlines() != [region] or region.strip() != region:
        raise DataError(f"region {region!r} cannot be written on one line of a model file")
    spec, params, scalers = model.spec, model.params, (model.input_scaler, model.target_scaler)
    bounds = dict(zip(_MODEL_KEYS[-5:-1], (b for scaler in scalers for b in (scaler.mins, scaler.maxs))))
    for key, bound in bounds.items():
        if not (np.abs(bound) <= MAX_MAGNITUDE).all():
            raise DataError(f"{key} {MAGNITUDE_RULE}")
    values = [
        MODEL_FORMAT, region, spec.variant, spec.lookback, params.hidden, model.train_end,
        *(_hex(arr) for _, arr in params.tensors()),
        *map(_hex, bounds.values()),
    ]
    body = "".join(f"{key} = {value}\n" for key, value in zip(_MODEL_KEYS, values))
    atomic_write(path, f"{body}sha256 = {_digest(body)}\n")


def _model_value(key: str, text: str, read: dict, body: str):
    """Parse ``text``, the value of line ``key`` of a model file, given
    ``read``, the values of the lines above it (the variant and hidden size
    set each float line's count; a ``*_maxs`` line returns the scaler of its
    bounds), and ``body``, the canonical lines ``f"{key} = {text}\\n"`` above
    it, which the ``sha256`` line must digest. Raises ValueError with the reason."""
    if key == "variant" and text not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {text!r}")
    if key == "sha256" and text != _digest(body):
        raise ValueError("checksum mismatch")
    if key in ("format", "region", "variant", "sha256"):
        return text
    if key in ("lookback", "hidden"):
        if not _POSITIVE.fullmatch(text):
            raise ValueError(f"{key} must be a positive integer, got {text!r}")
        return int(text)
    if key == "train_end":
        # Only the spelling that ``str(MonthKey)`` writes reads back.
        year, _, month = text.rpartition("-")
        try:
            train_end = MonthKey(int(year), int(month))
        except ValueError:
            train_end = None
        if train_end is None or str(train_end) != text:
            raise ValueError(f"train_end must be a YYYY-MM month, got {text!r}")
        return train_end
    features = WindowSpec(read["lookback"], read["variant"]).feature_width
    shape = LstmParams.shapes(features, read["hidden"]).get(key, (features if key.startswith("input") else 1,))
    tokens = text.split()
    if len(tokens) != math.prod(shape):
        raise ValueError(f"expected {math.prod(shape)} values, got {len(tokens)}")
    try:
        values = np.array(list(map(float.fromhex, tokens))).reshape(shape)
    except OverflowError:
        raise ValueError("hex float beyond the 64-bit float range") from None
    except ValueError:
        raise ValueError("malformed hex float") from None
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    if key not in ("w", "head") and not (np.abs(values) <= MAX_MAGNITUDE).all():
        raise ValueError(f"{key} {MAGNITUDE_RULE}")
    return MinMaxScaler(read[key.replace("maxs", "mins")], values) if key.endswith("maxs") else values


def load_model(path) -> TrainedModel:
    """Read a file written by :func:`save_model` in one pass, in file order:
    each line's key is checked, then :func:`_model_value` parses its value.
    The first fault of a malformed, truncated or altered file, or one of
    another format, raises DataError naming the path and that line."""
    entries = read_kv(path, DataError)
    read, body, line_no = {}, "", 0
    for key in _MODEL_KEYS:
        line_no, got, text = next(entries, (line_no + 1, None, None))
        try:
            if key == "format" and (got, text) != (key, MODEL_FORMAT):
                raise ValueError(f"not a {MODEL_FORMAT!r} file")
            if got != key:
                raise ValueError(f"expected {key!r}, got {'the end of the file' if got is None else repr(got)}")
            read[key] = _model_value(key, text, read, body)
        except ValueError as exc:
            raise DataError(f"{path} line {line_no}: {exc}") from None
        body += f"{key} = {text}\n"
    for line_no, got, _ in entries:
        raise DataError(f"{path} line {line_no}: {got!r} after the sha256 line")
    params, spec = LstmParams(read["w"], read["head"]), WindowSpec(read["lookback"], read["variant"])
    return TrainedModel(params, spec, read["input_maxs"], read["target_maxs"], read["train_end"], read["region"])
