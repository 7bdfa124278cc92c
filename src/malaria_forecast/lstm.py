"""LSTM forecaster: cell, backpropagation through time, Adam, gradient check.

Single LSTM layer plus a linear output head, trained on min-max scaled
windows with full-batch Adam by default. The backward pass is an exact
reverse-mode derivation through the unrolled sequence; ``gradient_check``
verifies it against central finite differences, which only ever call the
forward pass.

The four gates share one weight matrix (layout in :class:`LstmParams`). The
input projection ``x @ w[:, :F].T + b`` runs for every timestep at once,
before the recurrence; each step then adds one ``h @ w[:, F:].T`` and
applies one activation, :func:`core_math.gate_activation`, to all four
gate blocks.

The univariate and multivariate models share every routine here; they differ
only in the feature width of their windows (1 vs 5).
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .core_math import MinMaxScaler, Rng, gate_activation
from .data_model import MonthKey
from .errors import DataError, DivergenceError, ShapeError
from .windowing import VARIANTS, WindowSpec, WindowedDataset, make_windows

__all__ = [
    "LstmParams",
    "TrainConfig",
    "TrainedModel",
    "init_params",
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
    """Fused gate weights and the output head.

    ``w`` is (4H, F+H): row blocks i, f, g, o of H rows each (input gate,
    forget gate, cell candidate, output gate); columns are the F input
    features, then the H recurrent inputs. ``b`` is (4H,) in the same block
    order. The head is ``w_y`` (H,) with scalar bias ``b_y`` stored as (1,).
    All four blocks use one activation, s·tanh(s·z) + (1 − s): with s = ½ it
    is the logistic function (σ(z) = ½·tanh(z/2) + ½), used on i, f and o;
    with s = 1 it is tanh, used on g.
    """

    w: np.ndarray
    b: np.ndarray
    w_y: np.ndarray
    b_y: np.ndarray

    @staticmethod
    def shapes(features: int, hidden: int) -> dict[str, tuple[int, ...]]:
        return {"w": (4 * hidden, features + hidden), "b": (4 * hidden,), "w_y": (hidden,), "b_y": (1,)}

    def __post_init__(self):
        hidden = self.w_y.shape[0] if self.w_y.ndim == 1 else 0
        features = self.w.shape[1] - hidden if self.w.ndim == 2 else 0
        if hidden < 1 or features < 1:
            raise ShapeError(f"w {self.w.shape} and w_y {self.w_y.shape} are not (4H, F+H) and (H,)")
        for name, shape in self.shapes(features, hidden).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ShapeError(f"{name} contains non-finite entries")

    @property
    def hidden(self) -> int:
        return self.w_y.shape[0]

    @property
    def features(self) -> int:
        return self.w.shape[1] - self.hidden

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def copy(self) -> "LstmParams":
        return LstmParams(**{name: arr.copy() for name, arr in self.tensors()})


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
    """Parameters, window spec and scalers; ``train_end`` is the month of the
    last training target, and forecasts score only the months after it."""

    params: LstmParams
    spec: WindowSpec
    input_scaler: MinMaxScaler
    target_scaler: MinMaxScaler
    train_end: MonthKey
    loss_history: list[float] = field(default_factory=list)


def init_params(features: int, hidden: int, rng: Rng) -> LstmParams:
    """Uniform init in [-k, k] with k = 1/sqrt(hidden); forget bias set to +1
    afterwards so early cell state survives long windows.

    Values are drawn gate by gate (i, f, g, o), each gate's input weights,
    then its recurrent weights, then its bias; then w_y and b_y.
    """
    k = 1.0 / math.sqrt(hidden)
    n_x, n_h = hidden * features, hidden * hidden
    draws = rng.uniform(-k, k, size=(4, n_x + n_h + hidden))
    w_x = draws[:, :n_x].reshape(4 * hidden, features)
    w_h = draws[:, n_x : n_x + n_h].reshape(4 * hidden, hidden)
    b = draws[:, n_x + n_h :].reshape(4 * hidden)
    b[hidden : 2 * hidden] = 1.0
    w_y = rng.uniform(-k, k, size=hidden)
    return LstmParams(w=np.hstack([w_x, w_h]), b=b, w_y=w_y, b_y=rng.uniform(-k, k, size=1))


def _blocks(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the i, f, g, o column blocks of an (n, 4H) gate array."""
    h = a.shape[1] // 4
    return a[:, :h], a[:, h : 2 * h], a[:, 2 * h : 3 * h], a[:, 3 * h :]


@dataclass
class ForwardCache:
    """Per-step activations kept for backpropagation through time."""

    x: np.ndarray  # (n, L, features)
    gates: np.ndarray  # (n, L, 4 * hidden): activated i, f, g, o blocks
    c: np.ndarray  # (n, L, hidden)
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
    # Contiguous copies of the two column blocks keep both GEMMs on BLAS.
    w_x = np.ascontiguousarray(params.w[:, :feat].T)
    w_h = np.ascontiguousarray(params.w[:, feat:].T)
    # Input projection for every step at once; each step's activated gates
    # then overwrite its slice.
    gates = x.reshape(n * length, feat) @ w_x
    gates += params.b
    gates = gates.reshape(n, length, 4 * hdim)
    cache = ForwardCache(x, gates, np.empty(shape), np.empty(shape), np.empty(shape), id(params))
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hdim)  # logistic on i, f, o; tanh on g
    h = np.zeros((n, hdim))
    c = np.zeros((n, hdim))
    for t in range(length):
        gates[:, t] = gate_activation(gates[:, t] + h @ w_h, scale)
        i, f, g, o = _blocks(gates[:, t])
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
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
    n, length, feat = cache.x.shape
    if d_pred.shape != (n,):
        raise ShapeError(f"d_predictions has shape {d_pred.shape}, expected ({n},)")
    hdim = params.hidden
    w_h = params.w[:, feat:]

    # dz holds dLoss/d(pre-activation) of all four blocks at every step.
    dz = np.empty((n, length, 4 * hdim))
    dh = np.outer(d_pred, params.w_y)
    dc = np.zeros_like(dh)
    for t in range(length - 1, -1, -1):
        i, f, g, o = _blocks(cache.gates[:, t])
        dz_i, dz_f, dz_g, dz_o = _blocks(dz[:, t])
        tanh_c = cache.tanh_c[:, t]
        c_prev = cache.c[:, t - 1] if t > 0 else np.zeros_like(dc)

        dz_o[:] = dh * tanh_c * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tanh_c**2)
        dz_f[:] = dc * c_prev * f * (1.0 - f)
        dz_i[:] = dc * g * i * (1.0 - i)
        dz_g[:] = dc * i * (1.0 - g**2)

        dh = dz[:, t] @ w_h
        dc = dc * f

    # Each step's gate input is [x_t | h_{t-1}], with h_{-1} = 0.
    xh = np.zeros((n, length, feat + hdim))
    xh[:, :, :feat] = cache.x
    xh[:, 1:, feat:] = cache.h[:, :-1]
    dz_flat = dz.reshape(n * length, 4 * hdim)
    return {
        "w": dz_flat.T @ xh.reshape(n * length, feat + hdim),
        "b": dz_flat.sum(axis=0),
        "w_y": cache.h[:, -1].T @ d_pred,
        "b_y": np.array([d_pred.sum()]),
    }


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
        train_end=windows.months[-1],
        loss_history=history,
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
    """One-step-ahead forecasts for every month after the model's training.

    Rebuilds windows with the model's spec, keeps those whose target month
    comes after ``model.train_end``, scales with the model's own scalers, and
    returns (months, observed, predicted) in case counts. With
    ``recursive=True`` the case feature of each horizon window is replaced by
    the model's earlier predictions, so forecasts no longer consume observed
    cases beyond the training boundary.
    """
    w = make_windows(series, model.spec)
    split = next((k for k, month in enumerate(w.months) if month > model.train_end), w.samples)
    if split == w.samples:
        raise DataError(
            f"series ends at {w.months[-1]}, not after the model's last training month {model.train_end}"
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


MODEL_FORMAT = "malaria-forecast model 2"
_MONTH = re.compile(r"([0-9]{4})-([0-9]{2})")


def _floats_line(values: np.ndarray) -> str:
    return " ".join(float.hex(float(v)) for v in values) + "\n"


def save_model(model: TrainedModel, path) -> None:
    """Serialize to a flat versioned text format; floats are stored as C99
    hex literals so the round trip is bit-exact. A ``sha256`` line before
    ``end`` holds the digest of every byte above it."""
    lines = [
        f"{MODEL_FORMAT}\n",
        f"variant {model.spec.variant}\n",
        f"lookback {model.spec.lookback}\n",
        f"features {model.params.features}\n",
        f"hidden {model.params.hidden}\n",
        f"train_end {model.train_end}\n",
    ]
    for name, arr in model.params.tensors():
        mat = arr if arr.ndim == 2 else arr.reshape(1, -1)
        lines.append(f"tensor {name} {mat.shape[0]} {mat.shape[1]}\n")
        lines.extend(_floats_line(row) for row in mat)
    for label, scaler in (("input", model.input_scaler), ("target", model.target_scaler)):
        lines.append(f"scaler {label} {scaler.width}\n")
        lines.append(_floats_line(scaler.mins))
        lines.append(_floats_line(scaler.maxs))
    body = "".join(lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(f"sha256 {hashlib.sha256(body).hexdigest()}\nend\n".encode("utf-8"))


class _ModelReader:
    """Line cursor over a model file; every failure is a DataError naming
    the file and the line."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            try:
                text = fh.read().decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: not a UTF-8 text file") from None
        self.raw_lines = text.splitlines(keepends=True)
        self.lines = text.splitlines()
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

    def month(self, prefix: str) -> MonthKey:
        (token,) = self.fields(prefix, 1)
        match = _MONTH.fullmatch(token)
        if match is None or not 1 <= int(match[2]) <= 12:
            raise self.error(f"{prefix} must be a YYYY-MM month, got {token!r}")
        return MonthKey(int(match[1]), int(match[2]))

    def hex_floats(self, tokens: list[str]) -> list[float]:
        try:
            values = [float.fromhex(tok) for tok in tokens]
        except ValueError:
            raise self.error("malformed hex float") from None
        if not all(map(math.isfinite, values)):
            raise self.error("non-finite value")
        return values

    def checksum(self) -> None:
        """Check the ``sha256`` line against the bytes above it."""
        (digest,) = self.fields("sha256", 1)
        body = "".join(self.raw_lines[: self.line_no - 1]).encode("utf-8")
        if digest != hashlib.sha256(body).hexdigest():
            raise self.error("checksum mismatch")


def load_model(path) -> TrainedModel:
    """Read a file written by :func:`save_model`. A malformed, truncated or
    altered file, or one in a retired format, raises DataError naming the
    path and line."""
    reader = _ModelReader(path)
    header = reader.next_line()
    if header == "malaria-forecast model 1":
        raise reader.error("model format 1 is no longer read; retrain the model")
    if header != MODEL_FORMAT:
        raise reader.error(f"not a {MODEL_FORMAT!r} file")
    (variant,) = reader.fields("variant", 1)
    if variant not in VARIANTS:
        raise reader.error(f"variant must be one of {VARIANTS}, got {variant!r}")
    spec = WindowSpec(lookback=reader.positive_int("lookback"), variant=variant)
    features = reader.positive_int("features")
    hidden = reader.positive_int("hidden")
    train_end = reader.month("train_end")

    arrays = {}
    for name, shape in LstmParams.shapes(features, hidden).items():
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
    reader.checksum()
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
        train_end=train_end,
    )
