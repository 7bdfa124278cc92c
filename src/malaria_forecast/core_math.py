"""Dense numeric kernel: the LSTM gate activation, min-max scaling, seeded RNG.

Everything runs in 64-bit floats. Matrices are plain 2-D ``numpy`` arrays;
the helpers here add the shape checking the rest of the toolkit relies on.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ShapeError

__all__ = [
    "gate_activation",
    "MinMaxScaler",
    "Rng",
    "derive_seed",
]


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def gate_activation(z, scale):
    """``scale·tanh(scale·z) + (1 − scale)`` elementwise.

    With scale ½ this is the logistic function, since σ(z) = ½·tanh(z/2) + ½;
    with scale 1 it is tanh. ``scale`` broadcasts against ``z``, so one call
    activates a row of LSTM gates with the logistic and tanh blocks side by
    side. Saturates to exactly 0/1 or ±1 without overflow.
    """
    out = np.tanh(np.multiply(scale, z))
    out *= scale
    out += 1.0 - scale
    return out


class MinMaxScaler:
    """Per-feature min-max scaling onto [0, 1].

    Constant features map to 0.0 on transform and back to their constant on
    inverse transform. Fit only on training data; the windowing module
    enforces that.
    """

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        mins = np.atleast_1d(np.asarray(mins, dtype=np.float64))
        maxs = np.atleast_1d(np.asarray(maxs, dtype=np.float64))
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ShapeError(f"min/max shapes differ: {mins.shape} vs {maxs.shape}")
        if np.any(maxs < mins):
            raise ValueError("scaler max must be >= min for every feature")
        self.mins = mins
        self.maxs = maxs

    @property
    def width(self) -> int:
        return self.mins.shape[0]

    @classmethod
    def fit(cls, values) -> "MinMaxScaler":
        """Fit on a (rows, features) column block; requires at least one row."""
        v = as_matrix(values)
        if v.shape[0] < 1:
            raise ValueError("scaler fit requires at least one row")
        return cls(v.min(axis=0), v.max(axis=0))

    def _check_width(self, v: np.ndarray):
        if v.shape[-1] != self.width:
            raise ShapeError(
                f"scaler fitted for width {self.width}, got width {v.shape[-1]}"
            )

    def transform(self, values) -> np.ndarray:
        """Map [min, max] -> [0, 1] along the last axis."""
        v = np.asarray(values, dtype=np.float64)
        self._check_width(v)
        span = self.maxs - self.mins
        safe = np.where(span == 0.0, 1.0, span)
        out = (v - self.mins) / safe
        return np.where(span == 0.0, 0.0, out)

    def inverse(self, values) -> np.ndarray:
        """Undo :meth:`transform`; exact to round-off for non-degenerate features."""
        v = np.asarray(values, dtype=np.float64)
        self._check_width(v)
        return v * (self.maxs - self.mins) + self.mins


class Rng:
    """Seeded random generator owned by the caller, never global state.

    Wraps a PCG64 counter-based generator. ``split`` spawns independent child
    generators, so parallel consumers can reproduce the sequential seeded
    order exactly.
    """

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    @classmethod
    def _from_sequence(cls, seq: np.random.SeedSequence) -> "Rng":
        rng = cls.__new__(cls)
        rng.seed = int(seq.entropy) if isinstance(seq.entropy, int) else -1
        rng._seq = seq
        rng._gen = np.random.Generator(np.random.PCG64(seq))
        return rng

    def split(self, n: int) -> list["Rng"]:
        """Spawn ``n`` independent child generators."""
        return [Rng._from_sequence(s) for s in self._seq.spawn(n)]

    def uniform(self, lo: float, hi: float, size=None):
        """Draw from [lo, hi); rejects empty intervals."""
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        out = self._gen.uniform(lo, hi, size=size)
        return float(out) if size is None else out

    def normal(self, loc=0.0, scale=1.0, size=None):
        out = self._gen.normal(loc, scale, size=size)
        return float(out) if size is None else out

    def integers(self, lo: int, hi: int, size=None):
        return self._gen.integers(lo, hi, size=size)

    def poisson(self, lam, size=None):
        return self._gen.poisson(lam, size=size)

    def shuffle(self, values) -> None:
        """In-place shuffle."""
        self._gen.shuffle(values)

    def choice(self, values, size=None, replace=True):
        return self._gen.choice(values, size=size, replace=replace)


def derive_seed(seed: int, label: str) -> int:
    """Stable per-stage seed: hash of the global seed and a stage label.

    Uses SHA-256 so the derivation is identical across platforms and runs,
    unlike Python's salted ``hash``.
    """
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)
