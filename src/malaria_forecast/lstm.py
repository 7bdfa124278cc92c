"""LSTM forecaster: cell, backpropagation through time, Adam, gradient check.

Single LSTM layer plus a linear output head, trained on min-max scaled
windows with full-batch Adam by default. The backward pass is an exact
reverse-mode derivation through the unrolled sequence; ``gradient_check``
verifies it against central finite differences, which only ever call the
forward pass.

The univariate and multivariate models share every routine here; they differ
only in the feature width of their windows (1 vs 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core_math import MinMaxScaler, Rng
from .data_model import MonthKey
from .errors import DataError, DivergenceError, ShapeError
from .windowing import VARIANTS, WindowSpec, WindowedDataset, make_windows

__all__ = [
    "LstmParams",
    "LstmState",
    "TrainConfig",
    "TrainedModel",
    "init_params",
    "cell_step",
    "forward",
    "backward",
    "loss_mse",
    "adam_step",
    "AdamMoments",
    "train",
    "predict",
    "forecast_test_horizon",
    "gradient_check",
    "save_model",
    "load_model",
]


@dataclass
class LstmParams:
    """Gate weights (input W, recurrent U, bias b per gate) and output head.

    Gates: i = input, f = forget, g = cell candidate, o = output. Shapes are
    W_* (hidden, features), U_* (hidden, hidden), b_* (hidden,); the head is
    w_y (hidden,) with scalar bias b_y stored as shape (1,).
    """

    w_i: np.ndarray
    u_i: np.ndarray
    b_i: np.ndarray
    w_f: np.ndarray
    u_f: np.ndarray
    b_f: np.ndarray
    w_g: np.ndarray
    u_g: np.ndarray
    b_g: np.ndarray
    w_o: np.ndarray
    u_o: np.ndarray
    b_o: np.ndarray
    w_y: np.ndarray
    b_y: np.ndarray

    def __post_init__(self):
        h, f = self.w_i.shape
        expect = {}
        for gate in "ifgo":
            expect[f"w_{gate}"] = (h, f)
            expect[f"u_{gate}"] = (h, h)
            expect[f"b_{gate}"] = (h,)
        expect["w_y"] = (h,)
        expect["b_y"] = (1,)
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ShapeError(f"{name} contains non-finite entries")

    @property
    def hidden(self) -> int:
        return self.w_i.shape[0]

    @property
    def features(self) -> int:
        return self.w_i.shape[1]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def copy(self) -> "LstmParams":
        return LstmParams(**{name: arr.copy() for name, arr in self.tensors()})


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 32
    epochs: int = 300
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0 or self.eps <= 0 or self.clip_norm <= 0:
            raise ValueError("learning_rate, eps and clip_norm must be positive")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 < b < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {b}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainedModel:
    params: LstmParams
    spec: WindowSpec
    input_scaler: MinMaxScaler
    target_scaler: MinMaxScaler
    loss_history: list[float] = field(default_factory=list)
    train_fraction: float | None = None


def init_params(features: int, hidden: int, rng: Rng) -> LstmParams:
    """Uniform init in [-k, k] with k = 1/sqrt(hidden); forget bias set to +1
    afterwards so early cell state survives long windows."""
    k = 1.0 / math.sqrt(hidden)
    arrays = {}
    for gate in "ifgo":
        arrays[f"w_{gate}"] = rng.uniform(-k, k, size=(hidden, features))
        arrays[f"u_{gate}"] = rng.uniform(-k, k, size=(hidden, hidden))
        arrays[f"b_{gate}"] = rng.uniform(-k, k, size=hidden)
    arrays["w_y"] = rng.uniform(-k, k, size=hidden)
    arrays["b_y"] = rng.uniform(-k, k, size=1)
    arrays["b_f"] = np.ones(hidden)
    return LstmParams(**arrays)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def cell_step(params: LstmParams, x, state: LstmState) -> LstmState:
    """One gate update: (h, c) -> (h', c') for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.features,):
        raise ShapeError(f"input has shape {x.shape}, expected ({params.features},)")
    if state.h.shape != (params.hidden,) or state.c.shape != (params.hidden,):
        raise ShapeError(
            f"state shapes {state.h.shape}/{state.c.shape} do not match hidden {params.hidden}"
        )
    i = _sigmoid(params.w_i @ x + params.u_i @ state.h + params.b_i)
    f = _sigmoid(params.w_f @ x + params.u_f @ state.h + params.b_f)
    g = np.tanh(params.w_g @ x + params.u_g @ state.h + params.b_g)
    o = _sigmoid(params.w_o @ x + params.u_o @ state.h + params.b_o)
    c = f * state.c + i * g
    h = o * np.tanh(c)
    return LstmState(h=h, c=c)


@dataclass
class ForwardCache:
    """Per-step activations kept for backpropagation through time."""

    x: np.ndarray  # (n, L, features)
    i: np.ndarray  # (n, L, hidden)
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    params_id: int


def _as_batch(window) -> tuple[np.ndarray, bool]:
    arr = np.asarray(window, dtype=np.float64)
    if arr.ndim == 2:
        return arr[None, :, :], True
    if arr.ndim == 3:
        return arr, False
    raise ShapeError(f"window must be (L, features) or (n, L, features), got {arr.shape}")


def forward(params: LstmParams, window):
    """Thread the cell through a window from zero state; head off the last h.

    Accepts one (L, features) window or a batch (n, L, features); returns a
    scalar or an (n,) vector of predictions plus the activation cache.
    """
    x, single = _as_batch(window)
    n, length, feat = x.shape
    if length < 1:
        raise ShapeError("window length must be >= 1")
    if feat != params.features:
        raise ShapeError(f"window has {feat} features, params expect {params.features}")
    hdim = params.hidden
    shape = (n, length, hdim)
    cache = ForwardCache(
        x=x,
        i=np.empty(shape),
        f=np.empty(shape),
        g=np.empty(shape),
        o=np.empty(shape),
        c=np.empty(shape),
        tanh_c=np.empty(shape),
        h=np.empty(shape),
        params_id=id(params),
    )
    h = np.zeros((n, hdim))
    c = np.zeros((n, hdim))
    for t in range(length):
        xt = x[:, t, :]
        i = _sigmoid(xt @ params.w_i.T + h @ params.u_i.T + params.b_i)
        f = _sigmoid(xt @ params.w_f.T + h @ params.u_f.T + params.b_f)
        g = np.tanh(xt @ params.w_g.T + h @ params.u_g.T + params.b_g)
        o = _sigmoid(xt @ params.w_o.T + h @ params.u_o.T + params.b_o)
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache.i[:, t], cache.f[:, t], cache.g[:, t], cache.o[:, t] = i, f, g, o
        cache.c[:, t], cache.tanh_c[:, t], cache.h[:, t] = c, tanh_c, h
    preds = h @ params.w_y + params.b_y[0]
    return (float(preds[0]) if single else preds), cache


def loss_mse(predictions, targets) -> float:
    predictions = np.atleast_1d(np.asarray(predictions, dtype=np.float64))
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ValueError(
            f"predictions {predictions.shape} and targets {targets.shape} must match and be non-empty"
        )
    return float(np.mean((predictions - targets) ** 2))


def backward(params: LstmParams, cache: ForwardCache, d_predictions) -> dict[str, np.ndarray]:
    """Exact gradients of the loss w.r.t. every parameter tensor.

    ``d_predictions`` is dLoss/dprediction per sample (for mean squared error
    over n samples: 2 * (pred - target) / n).
    """
    if cache.params_id != id(params):
        raise ValueError("cache was produced by a different parameter set")
    d_pred = np.atleast_1d(np.asarray(d_predictions, dtype=np.float64))
    n, length, _ = cache.x.shape
    if d_pred.shape != (n,):
        raise ShapeError(f"d_predictions has shape {d_pred.shape}, expected ({n},)")

    grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
    grads["w_y"] = cache.h[:, -1].T @ d_pred
    grads["b_y"] = np.array([d_pred.sum()])

    dh = np.outer(d_pred, params.w_y)
    dc = np.zeros_like(dh)
    for t in range(length - 1, -1, -1):
        i, f, g, o = cache.i[:, t], cache.f[:, t], cache.g[:, t], cache.o[:, t]
        tanh_c = cache.tanh_c[:, t]
        c_prev = cache.c[:, t - 1] if t > 0 else np.zeros_like(dc)
        h_prev = cache.h[:, t - 1] if t > 0 else np.zeros_like(dh)
        xt = cache.x[:, t, :]

        dz_o = dh * tanh_c * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tanh_c**2)
        dz_f = dc * c_prev * f * (1.0 - f)
        dz_i = dc * g * i * (1.0 - i)
        dz_g = dc * i * (1.0 - g**2)

        for gate, dz in (("i", dz_i), ("f", dz_f), ("g", dz_g), ("o", dz_o)):
            grads[f"w_{gate}"] += dz.T @ xt
            grads[f"u_{gate}"] += dz.T @ h_prev
            grads[f"b_{gate}"] += dz.sum(axis=0)

        dh = dz_i @ params.u_i + dz_f @ params.u_f + dz_g @ params.u_g + dz_o @ params.u_o
        dc = dc * f
    return grads


@dataclass
class AdamMoments:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, params: LstmParams) -> "AdamMoments":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in params.tensors()},
            v={name: np.zeros_like(arr) for name, arr in params.tensors()},
        )


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients down when their global L2 norm exceeds the cap."""
    total = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_step(
    params: LstmParams,
    grads: dict[str, np.ndarray],
    moments: AdamMoments,
    t: int,
    cfg: TrainConfig,
) -> tuple[LstmParams, AdamMoments]:
    """Bias-corrected Adam update (in place); t counts from 1."""
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    clip_gradients(grads, cfg.clip_norm)
    b1c = 1.0 - cfg.beta1**t
    b2c = 1.0 - cfg.beta2**t
    for name, arr in params.tensors():
        g = grads[name]
        if g.shape != arr.shape:
            raise ShapeError(f"gradient {name} has shape {g.shape}, expected {arr.shape}")
        m = moments.m[name]
        v = moments.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g**2
        arr -= cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + cfg.eps)
    return params, moments


def train(windows: WindowedDataset, cfg: TrainConfig) -> TrainedModel:
    """Fit on a scaled training partition; full-batch unless batch_size set.

    The loss history records the mean squared error seen in each epoch
    (before that epoch's update reaches the next one).
    """
    if windows.samples == 0:
        raise ValueError("training partition is empty")
    if windows.input_scaler is None or windows.target_scaler is None:
        raise ValueError("windows must be scaled (use split_train_test first)")
    X = windows.inputs
    y = windows.targets
    n = windows.samples
    rng = Rng(cfg.seed)
    params = init_params(windows.spec.feature_width, cfg.hidden, rng)
    moments = AdamMoments.zeros(params)
    history: list[float] = []
    step = 0
    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    order = np.arange(n)
    for epoch in range(cfg.epochs):
        if batch < n:
            rng.shuffle(order)
        epoch_loss = 0.0
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            preds, cache = forward(params, X[idx])
            preds = np.atleast_1d(preds)
            loss = loss_mse(preds, y[idx])
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            grads = backward(params, cache, 2.0 * (preds - y[idx]) / idx.size)
            step += 1
            adam_step(params, grads, moments, step, cfg)
            epoch_loss += loss * idx.size
        history.append(epoch_loss / n)
    return TrainedModel(
        params=params,
        spec=windows.spec,
        input_scaler=windows.input_scaler,
        target_scaler=windows.target_scaler,
        loss_history=history,
        train_fraction=windows.train_fraction,
    )


def predict(model: TrainedModel, windows) -> np.ndarray:
    """Forecast case counts for scaled windows: forward pass, inverse
    transform, clamp at zero (case counts cannot be negative)."""
    x, single = _as_batch(windows)
    preds, _ = forward(model.params, x)
    raw = model.target_scaler.inverse(np.atleast_1d(preds).reshape(-1, 1)).ravel()
    raw = np.maximum(raw, 0.0)
    return raw[:1] if single else raw


def forecast_test_horizon(
    model: TrainedModel, series, recursive: bool = False
) -> tuple[list[MonthKey], np.ndarray, np.ndarray]:
    """One-step-ahead forecasts over the held-out tail of a series.

    Rebuilds windows with the model's spec, locates the test partition from
    the stored train fraction, scales with the model's own scalers, and
    returns (months, observed, predicted) in case counts. With
    ``recursive=True`` the case feature of each test window is replaced by
    the model's earlier predictions, so forecasts no longer consume observed
    cases beyond the training boundary.
    """
    if model.train_fraction is None:
        raise ValueError("model carries no train fraction; cannot locate the test horizon")
    w = make_windows(series, model.spec)
    split = math.floor(model.train_fraction * w.samples)
    if split < 1 or split >= w.samples:
        raise DataError(
            f"series yields {w.samples} windows; fraction {model.train_fraction} leaves no test horizon"
        )
    months = w.months[split:]
    observed = w.targets[split:]
    if not recursive:
        scaled = model.input_scaler.transform(w.inputs[split:])
        return months, observed, predict(model, scaled)

    lookback = model.spec.lookback
    predicted = np.empty(len(months))
    raw_windows = w.inputs[split:].copy()
    for k in range(len(months)):
        window = raw_windows[k]
        # Positions whose month falls in the forecast horizon get the model's
        # own earlier predictions instead of observed cases.
        for back in range(1, lookback + 1):
            horizon_offset = k - back
            if horizon_offset >= 0:
                window[lookback - back, -1] = predicted[horizon_offset]
        scaled = model.input_scaler.transform(window)
        predicted[k] = predict(model, scaled)[0]
    return months, observed, predicted


def gradient_check(
    params: LstmParams, inputs, targets, epsilon: float = 1e-5
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    The numeric side only calls ``forward``/``loss_mse``. Returns, per
    parameter tensor, the relative error ||analytic - numeric|| /
    max(||analytic|| + ||numeric||, 1e-12).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    preds, cache = forward(params, inputs)
    preds = np.atleast_1d(preds)
    analytic = backward(params, cache, 2.0 * (preds - targets) / targets.size)

    errors = {}
    for name, arr in params.tensors():
        numeric = np.zeros_like(arr)
        flat = arr.ravel()
        num_flat = numeric.ravel()
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + epsilon
            hi, _ = forward(params, inputs)
            flat[j] = saved - epsilon
            lo, _ = forward(params, inputs)
            flat[j] = saved
            num_flat[j] = (loss_mse(hi, targets) - loss_mse(lo, targets)) / (2.0 * epsilon)
        a = analytic[name]
        denom = max(float(np.linalg.norm(a)) + float(np.linalg.norm(numeric)), 1e-12)
        errors[name] = float(np.linalg.norm(a - numeric)) / denom
    return errors


MODEL_FORMAT = "malaria-forecast model 1"


def _write_floats(fh, values: np.ndarray):
    fh.write(" ".join(float.hex(float(v)) for v in values))
    fh.write("\n")


def save_model(model: TrainedModel, path) -> None:
    """Serialize to a flat versioned text format; floats are stored as C99
    hex literals so the round trip is bit-exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{MODEL_FORMAT}\n")
        fh.write(f"variant {model.spec.variant}\n")
        fh.write(f"lookback {model.spec.lookback}\n")
        fh.write(f"features {model.params.features}\n")
        fh.write(f"hidden {model.params.hidden}\n")
        fraction = "none" if model.train_fraction is None else float.hex(model.train_fraction)
        fh.write(f"train_fraction {fraction}\n")
        for name, arr in model.params.tensors():
            mat = arr.reshape(arr.shape[0], -1) if arr.ndim == 2 else arr.reshape(1, -1)
            fh.write(f"tensor {name} {mat.shape[0]} {mat.shape[1]}\n")
            for row in mat:
                _write_floats(fh, row)
        for label, scaler in (("input", model.input_scaler), ("target", model.target_scaler)):
            fh.write(f"scaler {label} {scaler.width}\n")
            _write_floats(fh, scaler.mins)
            _write_floats(fh, scaler.maxs)
        fh.write("end\n")


class _ModelReader:
    """Line cursor over a model file; every failure is a DataError naming
    the file and the line."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                self.lines = fh.read().splitlines()
        except UnicodeDecodeError:
            raise DataError(f"{path}: not a UTF-8 text file") from None
        self.line_no = 0

    def error(self, message: str) -> DataError:
        return DataError(f"{self.path}: line {self.line_no}: {message}")

    def next_line(self) -> str:
        self.line_no += 1
        if self.line_no > len(self.lines):
            raise self.error("unexpected end of file")
        return self.lines[self.line_no - 1]

    def fields(self, prefix: str | None, count: int) -> list[str]:
        """The next line's fields after ``prefix`` (if given); exactly ``count``."""
        line = self.next_line()
        parts = line.split()
        if prefix is not None:
            if not parts or parts[0] != prefix:
                raise self.error(f"expected {prefix!r}, got {line!r}")
            parts = parts[1:]
        if len(parts) != count:
            raise self.error(f"expected {count} fields, got {len(parts)}")
        return parts

    def positive_int(self, prefix: str) -> int:
        (token,) = self.fields(prefix, 1)
        if not token.isdecimal() or int(token) < 1:
            raise self.error(f"{prefix} must be a positive integer, got {token!r}")
        return int(token)

    def hex_floats(self, tokens: list[str]) -> list[float]:
        try:
            values = [float.fromhex(tok) for tok in tokens]
        except ValueError:
            raise self.error("malformed hex float") from None
        if not all(map(math.isfinite, values)):
            raise self.error("non-finite value")
        return values


def load_model(path) -> TrainedModel:
    """Read a file written by :func:`save_model`. A malformed or truncated
    file raises DataError naming the path and line."""
    reader = _ModelReader(path)
    if reader.next_line() != MODEL_FORMAT:
        raise reader.error(f"not a {MODEL_FORMAT!r} file")
    (variant,) = reader.fields("variant", 1)
    if variant not in VARIANTS:
        raise reader.error(f"variant must be one of {VARIANTS}, got {variant!r}")
    spec = WindowSpec(lookback=reader.positive_int("lookback"), variant=variant)
    features = reader.positive_int("features")
    hidden = reader.positive_int("hidden")
    (raw_fraction,) = reader.fields("train_fraction", 1)
    fraction = None if raw_fraction == "none" else reader.hex_floats([raw_fraction])[0]

    shapes = {}
    for gate in "ifgo":
        shapes[f"w_{gate}"] = (hidden, features)
        shapes[f"u_{gate}"] = (hidden, hidden)
        shapes[f"b_{gate}"] = (hidden,)
    shapes["w_y"] = (hidden,)
    shapes["b_y"] = (1,)

    arrays = {}
    for name, shape in shapes.items():
        rows, cols = shape if len(shape) == 2 else (1, shape[0])
        if reader.fields("tensor", 3) != [name, str(rows), str(cols)]:
            raise reader.error(f"expected tensor {name} {rows} {cols}")
        data = [reader.hex_floats(reader.fields(None, cols)) for _ in range(rows)]
        arrays[name] = np.array(data).reshape(shape)
    params = LstmParams(**arrays)

    scalers = {}
    for label, width in (("input", features), ("target", 1)):
        if reader.fields("scaler", 2) != [label, str(width)]:
            raise reader.error(f"expected scaler {label} {width}")
        mins = np.array(reader.hex_floats(reader.fields(None, width)))
        maxs = np.array(reader.hex_floats(reader.fields(None, width)))
        try:
            scalers[label] = MinMaxScaler(mins, maxs)
        except ValueError as exc:
            raise reader.error(str(exc)) from None
    if reader.next_line() != "end":
        raise reader.error("expected end marker")
    if reader.line_no != len(reader.lines):
        reader.line_no += 1
        raise reader.error("content after end marker")

    return TrainedModel(
        params=params,
        spec=spec,
        input_scaler=scalers["input"],
        target_scaler=scalers["target"],
        loss_history=[],
        train_fraction=fraction,
    )
