"""Numeric helpers: min-max scaling, per-stage seeds and setting rules.

Everything runs in 64-bit floats. A stage seeds its own generator with
``np.random.default_rng(derive_seed(seed, label))``, never global state.
A config dataclass declares each field's rule, a ``(check, wording)`` pair,
with :func:`ruled`; :func:`check_fields` applies them when it is built, and
``cli.SETTINGS`` reads the same rules to check a value where it is read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from .errors import ConfigError, ShapeError

AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
NONE_OR_AT_LEAST_1 = (lambda v: v is None or v >= 1, "must be >= 1")
OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must be in (0, 1)")
FINITE = (math.isfinite, "must be finite")
POSITIVE_FINITE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")


def ruled(default, rule):
    """A dataclass field with ``default`` whose values must pass ``rule``."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def check_fields(config) -> None:
    """Raise ConfigError for the first field of ``config`` that breaks its rule."""
    for f in dataclasses.fields(config):
        rule, value = f.metadata.get("rule"), getattr(config, f.name)
        if rule and not rule[0](value):
            raise ConfigError(f"{f.name} {rule[1]}, got {value}")


class MinMaxScaler:
    """Per-feature min-max scaling onto [0, 1].

    ``mins`` and ``maxs`` hold one bound per feature, as :meth:`fit` and the
    model reader give them. Constant features map to 0.0 on transform and
    back to their constant on inverse transform. Fit only on training data;
    the windowing module enforces that.
    """

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        mins = np.atleast_1d(np.asarray(mins, dtype=np.float64))
        maxs = np.atleast_1d(np.asarray(maxs, dtype=np.float64))
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
        v = np.asarray(values, dtype=np.float64)
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


def derive_seed(seed: int, label: str) -> int:
    """Stable per-stage seed: hash of the global seed and a stage label.

    Uses SHA-256 so the derivation is identical across platforms and runs,
    unlike Python's salted ``hash``.
    """
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)
