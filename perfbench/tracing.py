"""In-process span tracing of the pipeline, from outside the program.

``Tracer.install`` replaces public functions of the ``malaria_forecast``
modules with wrappers that record a span (id, parent id, name, start, end)
per call and count calls that raised. Every module attribute bound to the
original function is replaced, so ``from .windowing import make_windows``
aliases are traced too; ``uninstall`` restores them. Spans stay in memory
until ``write_jsonl``. The source tree is never edited.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (layer, module, function). Layers are the program's modules; ``cli`` spans
# are the pipeline stages.
TRACED = [
    ("data_model", "data_model", "ingest_csv"),
    ("data_model", "data_model", "write_csv"),
    ("data_model", "data_model", "aggregate_provinces"),
    ("data_model", "data_model", "to_country_level"),
    ("imputation", "imputation", "impute_dataset"),
    ("imputation", "imputation", "missforest_impute"),
    ("imputation", "imputation", "forest_fit"),
    ("imputation", "imputation", "forest_predict"),
    ("windowing", "windowing", "make_windows"),
    ("windowing", "windowing", "split_train_test"),
    ("lstm", "lstm", "train"),
    ("lstm", "lstm", "forward"),
    ("lstm", "lstm", "backward"),
    ("lstm", "lstm", "adam_step"),
    ("lstm", "lstm", "predict"),
    ("lstm", "lstm", "forecast_test_horizon"),
    ("lstm", "lstm", "save_model"),
    ("lstm", "lstm", "load_model"),
    ("evaluation", "evaluation", "make_report"),
    ("evaluation", "evaluation", "build_comparison"),
    ("evaluation", "evaluation", "render_comparison_text"),
    ("evaluation", "evaluation", "render_totals_text"),
    ("evaluation", "evaluation", "write_comparison_csv"),
    ("evaluation", "evaluation", "write_totals_csv"),
    ("evaluation", "evaluation", "emit_curves"),
    ("evaluation", "evaluation", "write_svg"),
    ("cli", "cli", "run_pipeline"),
    ("cli", "cli", "run_impute"),
    ("cli", "cli", "run_aggregate"),
    ("cli", "cli", "run_train"),
    ("cli", "cli", "run_forecast"),
    ("cli", "cli", "run_evaluate"),
]
LAYERS = ("imputation", "lstm", "data_model", "windowing", "evaluation", "cli")
# Functions whose arguments ``Tracer._attrs`` reads, by position.
READS_ARGS = {"lstm.forward", "data_model.ingest_csv", "data_model.write_csv", "lstm.save_model"}
PACKAGE = "malaria_forecast"


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    # Facts taken from the call's arguments or result (rows, flops, ...).
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _gemm_flops(window, hidden: int) -> int:
    """GEMM flops of one training step (forward + backward through time).

    Per timestep and gate the forward pass does x@W (n,F,H) and h@U (n,H,H);
    backpropagation does dz^T@x, dz^T@h and dz@U. Computed from shapes, so
    it does not depend on how the gates are laid out.
    """
    n, length, features = np.shape(window)
    return 8 * length * n * hidden * (2 * features + 3 * hidden)


class Tracer:
    def __init__(self, hidden: int):
        self.hidden = hidden
        self.spans: list[Span] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self.missing: list[str] = []
        self.attr_failures: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _attrs(self, span: Span, args, result) -> dict:
        """Work counts measured at the boundary of the call."""
        name = span.name
        parent = None if span.parent is None else self.spans[span.parent].name
        if name == "lstm.forward" and parent == "lstm.train":
            return {"gemm_flops": _gemm_flops(args[1], self.hidden)}
        if name == "data_model.ingest_csv" and isinstance(args[0], (str, os.PathLike)):
            return {"rows": _count_lines(args[0])}
        if name == "data_model.write_csv":
            return {"rows": _count_lines(args[1])}
        if name == "lstm.save_model":
            return {"bytes": os.path.getsize(args[1])}
        if name == "windowing.make_windows":
            return {"windows": int(getattr(result, "samples", 0))}
        if name == "imputation.missforest_impute":
            return {"sweeps": int(getattr(result, "iterations_run", 0))}
        return {}

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn) if name in READS_ARGS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            # The tracer must never break the traced program: a fact it cannot
            # read is reported instead.
            try:
                positional = signature.bind(*args, **kwargs).args if signature else args
                span.attrs = self._attrs(span, positional, result)
            except Exception as exc:
                self.attr_failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` that the program still has."""
        package = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for layer, module_name, fn_name in TRACED:
            original = getattr(package.get(f"{PACKAGE}.{module_name}"), fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            wrapped = self._wrap(layer, f"{module_name}.{fn_name}", original)
            for module in package.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write_jsonl(self, path, header: dict) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s, self_s in zip(self.spans, own):
                record = {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                          "end": s.end, "self_s": self_s, **s.attrs}
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, wall_s: float, n_trees: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures: ``<fn>_s`` sums durations, counts are exact."""
        own = self.self_times()
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(name):
            return by_name.get(name, [])

        def total(name, where=None):
            return sum(s.duration for s in spans(name) if where is None or where(s))

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s in spans(name))

        def self_sum(*names):
            return sum(own[s.id] for name in names for s in spans(name))

        def pct(part):
            return 100.0 * part / wall_s

        def p50_max(name):
            durations = [s.duration for s in spans(name)] or [0.0]
            return statistics.median(durations), max(durations)

        in_train = {s.id for s in spans("lstm.train")}

        def training(s):
            return s.parent in in_train

        m: dict[str, tuple[float, str]] = {}
        forest_calls = len(spans("imputation.forest_fit"))
        province_p50, province_max = p50_max("imputation.missforest_impute")
        m["imputation.missforest_impute_s"] = (total("imputation.missforest_impute"), "s")
        m["imputation.forest_fit_pct"] = (pct(total("imputation.forest_fit")), "%")
        m["imputation.forest_predict_pct"] = (pct(total("imputation.forest_predict")), "%")
        m["imputation.forest_fit_calls"] = (forest_calls, "count")
        m["imputation.trees_fitted"] = (forest_calls * n_trees, "count")
        m["imputation.province_s_p50"] = (province_p50, "s")
        m["imputation.province_s_max"] = (province_max, "s")
        m["imputation.sweeps"] = (attr_sum("imputation.missforest_impute", "sweeps"), "count")
        m["imputation.self_s"] = (self_sum("imputation.impute_dataset", "imputation.missforest_impute"), "s")

        train_s = total("lstm.train")
        steps = len(spans("lstm.adam_step"))
        forward_s = total("lstm.forward", training)
        backward_s = total("lstm.backward")
        flops = attr_sum("lstm.forward", "gemm_flops")
        model_p50, model_max = p50_max("lstm.train")
        m["lstm.train_s"] = (train_s, "s")
        m["lstm.train_pct"] = (pct(train_s), "%")
        m["lstm.model_s_p50"] = (model_p50, "s")
        m["lstm.model_s_max"] = (model_max, "s")
        m["lstm.forward_s"] = (forward_s, "s")
        m["lstm.backward_s"] = (backward_s, "s")
        m["lstm.adam_step_s"] = (total("lstm.adam_step"), "s")
        m["lstm.steps"] = (steps, "count")
        m["lstm.step_ms"] = (1000.0 * train_s / max(steps, 1), "ms")
        m["lstm.self_s"] = (self_sum("lstm.train"), "s")
        m["lstm.step_gflop"] = (flops / max(steps, 1) / 1e9, "GFLOP")
        m["lstm.gflops"] = (flops / max(forward_s + backward_s, 1e-12) / 1e9, "GFLOP/s")
        m["lstm.predict_s"] = (total("lstm.predict"), "s")
        m["lstm.predict_calls"] = (len(spans("lstm.predict")), "count")
        m["lstm.forecast_test_horizon_s"] = (total("lstm.forecast_test_horizon"), "s")
        m["lstm.save_model_s"] = (total("lstm.save_model"), "s")
        m["lstm.load_model_s"] = (total("lstm.load_model"), "s")
        m["lstm.model_bytes"] = (attr_sum("lstm.save_model", "bytes"), "bytes")

        m["data_model.ingest_csv_s"] = (total("data_model.ingest_csv"), "s")
        m["data_model.ingest_csv_calls"] = (len(spans("data_model.ingest_csv")), "count")
        m["data_model.rows_ingested"] = (attr_sum("data_model.ingest_csv", "rows"), "count")
        m["data_model.write_csv_s"] = (total("data_model.write_csv"), "s")
        m["data_model.rows_written"] = (attr_sum("data_model.write_csv", "rows"), "count")
        m["data_model.aggregate_s"] = (
            total("data_model.aggregate_provinces") + total("data_model.to_country_level"), "s"
        )

        m["windowing.make_windows_s"] = (total("windowing.make_windows"), "s")
        m["windowing.split_train_test_s"] = (total("windowing.split_train_test"), "s")
        m["windowing.windows_built"] = (attr_sum("windowing.make_windows", "windows"), "count")

        evaluation = {s.id: s for s in self.spans if s.name.startswith("evaluation.")}
        outermost = [s for s in evaluation.values() if s.parent not in evaluation]
        m["evaluation.s"] = (sum(s.duration for s in outermost), "s")

        for stage in ("impute", "aggregate", "train", "forecast", "evaluate"):
            m[f"cli.{stage}_s"] = (total(f"cli.run_{stage}"), "s")
        m["cli.self_s"] = (self_sum("cli.run_pipeline"), "s")

        for layer in LAYERS:
            m[f"{layer}.errors"] = (self.errors[layer], "count")
        return m
