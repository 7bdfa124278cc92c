"""Benchmark of the ``malaria-forecast pipeline`` batch run.

    python3 perfbench/run.py --workload impute-forest --seed 1 --seconds 60 --trace 0

Builds its input from ``--seed`` with the CLI's ``synth`` command (120
months, 18 provinces), then runs the real CLI from ``src/`` in fresh child
processes. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
one untraced and one traced in-process pipeline and prints the per-layer
metrics. Every output directory is checked (see ``checks.py``) and runs that
exit non-zero or fail a check are counted in ``failed``. The last line of
standard output is the result object; the line before it holds samples,
quality scores and machine facts. Working files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path

import checks
import speedref
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SETUP_REPS = 2  # before each pipeline run
MIN_PIPELINE_RUNS = 2  # the second run checks byte-identical reruns


@dataclass(frozen=True)
class Workload:
    missing_rate: float
    flags: dict
    months: int = 120
    budget_s: float = 160.0  # the benchmark must end within 180 s

    @property
    def n_trees(self) -> int:
        return int(self.flags.get("impute.n_trees", 100))

    @property
    def hidden(self) -> int:
        return int(self.flags.get("train.hidden", 32))


WORKLOADS = {
    # 108 forests of 25 trees; max_iter 2 fixes every province at two
    # sweeps, so the forest count does not depend on the RNG stream. One
    # epoch keeps the LSTM layer idle. A run takes ~9 s, so a measuring
    # window holds about six of them and their median resists host noise.
    "impute-forest": Workload(0.05, {"impute.n_trees": 25, "impute.max_iter": 2, "train.epochs": 1}),
    # Nothing masked, so imputation returns at once; 600 full-batch Adam
    # steps at n~86, L=12, H=32 make GEMM-shaped work dominate (~7 s a run).
    "train-fullbatch": Workload(0.0, {"train.epochs": 50}),
    # The same LSTM layer bound by per-call cost: 2,640 steps on batches of
    # 8 plus 264 single-window recursive predictions. Ungated: its run time
    # jumps between ~7.5 s and ~10.5 s with the host's load.
    "train-minibatch": Workload(
        0.0, {"train.epochs": 20, "train.batch_size": 8, "forecast.recursive": "true"}
    ),
    # Default settings (~100 s a run); an ungated reference for stage shares.
    "default": Workload(0.05, {}, budget_s=900.0),
}


class ChildFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float  # user + system, summed over the child and its waited-for descendants
    peak_rss_mb: float
    code: int


def run_child(args: list[str], log_path: Path, deadline: float) -> Child:
    """Run ``python args`` against ``src/`` and wait for it, killing it at ``deadline``.

    ``wait4`` reports the largest RSS of the child and of every descendant it
    waited for, so worker processes count as well.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=ENV, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log
        )
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def _last_line(log_path: Path) -> str:
    lines = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def make_inputs(workload: Workload, seed: int, work: Path, deadline: float) -> tuple[Path, Path]:
    """Truth and masked CSVs from the CLI's ``synth`` command."""
    truth, masked = work / "truth.csv", work / "masked.csv"
    args = ["-m", "malaria_forecast.cli", "synth", "--seed", str(seed),
            "--months", str(workload.months), "--missing-rate", repr(workload.missing_rate),
            "--out-truth", str(truth), "--out-masked", str(masked)]
    code = run_child(args, work / "synth.log", deadline).code
    if code != 0:
        raise ChildFailed(f"synth exited {code}: {_last_line(work / 'synth.log')}")
    return truth, masked


def pipeline_argv(workload: Workload, seed: int, masked: Path, out: Path) -> list[str]:
    argv = ["pipeline", "--seed", str(seed), "--input_csv", str(masked), "--out_dir", str(out)]
    for key, value in workload.flags.items():
        argv += [f"--{key}", str(value)]
    return argv


def score(fn, *args) -> float | None:
    """A quality score, or None when the outputs it reads are broken (the
    run's checks have already counted that as a failure)."""
    try:
        return fn(*args)
    except (OSError, KeyError, ValueError, ZeroDivisionError):
        return None


def check_run(masked: Path, out: Path, reference: dict | None) -> tuple[list[str], dict]:
    """Violations of one finished run, and its out_dir digest."""
    problems = checks.check_out_dir(masked, out)
    digest = checks.tree_digest(out)
    if reference is not None:
        problems += checks.compare_digests(reference, digest)
    return problems, digest


def measure_setup(work: Path, deadline: float) -> list[Child]:
    """Fresh interpreters that import the CLI and build its parser."""
    args = ["-c", "import malaria_forecast.cli as cli; cli.build_parser()"]
    children = [run_child(args, work / "setup.log", deadline) for _ in range(SETUP_REPS)]
    if any(c.code != 0 for c in children):
        raise ChildFailed(f"CLI import failed: {_last_line(work / 'setup.log')}")
    return children


def measure_e2e(workload: Workload, seed: int, seconds: float, work: Path, deadline: float):
    """Pipeline child runs for ``seconds`` (at least two), tracing off.

    A run is started only if a run of the mean length so far (set-up
    samples, reference loops and checks included) still ends within
    ``seconds``, so the window is not overrun by a whole run. The reference
    loop is timed before the first run and after each run.
    """
    truth, masked = make_inputs(workload, seed, work, deadline)
    setup, runs, adjusted = [], [], []
    failures: dict[str, list[str]] = {}  # run label -> violations
    reference = None
    attempted = 0
    start = time.perf_counter()
    # Every run writes the same out_dir path, because run_config.txt records it.
    out, first_out = work / "out", work / "first"
    references = [speedref.reference_s()]
    while attempted < MIN_PIPELINE_RUNS or (
        (time.perf_counter() - start) * (attempted + 1) / attempted <= seconds
    ):
        if runs and time.monotonic() + max(r.wall_s for r in runs) > deadline:
            break
        # Set-up samples are spread over the run, as the machine's load drifts.
        setup += measure_setup(work, deadline)
        log = work / f"pipeline{attempted}.log"
        child = run_child(["-m", "malaria_forecast.cli", *pipeline_argv(workload, seed, masked, out)], log, deadline)
        references.append(speedref.reference_s())
        attempted += 1
        label = f"run {attempted}"
        if child.code != 0:
            failures[label] = [f"exit {child.code}: {_last_line(log)}"]
            shutil.rmtree(out, ignore_errors=True)
            continue
        problems, digest = check_run(masked, out, reference)
        if reference is None:
            reference = digest
            out.rename(first_out)
        else:
            shutil.rmtree(out)
        if problems:
            failures[label] = problems
        runs.append(child)
        adjusted.append(speedref.adjusted_s(child.wall_s, references[-2], references[-1]))
    if not runs:
        raise ChildFailed(f"no run succeeded: {failures}")
    # Set-up is timed in CPU seconds: its wall time is mostly the host's
    # scheduling noise (0.25-0.97 s on a 2-vCPU VM whose CPU time held at 0.4 s).
    metrics = {
        "pipeline_adj_s": (statistics.median(adjusted), "s"),
        "setup_s": (statistics.median(c.cpu_s for c in setup), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
    }
    detail = {
        "pipeline_s": statistics.median(r.wall_s for r in runs),
        "pipeline_s_samples": [r.wall_s for r in runs],
        "pipeline_adj_s_samples": adjusted,
        "reference_s_samples": references,
        "pipeline_cpu_s_samples": [r.cpu_s for r in runs],
        "setup_cpu_s_samples": [c.cpu_s for c in setup],
        "setup_wall_s_samples": [c.wall_s for c in setup],
        "peak_rss_mb_samples": [r.peak_rss_mb for r in runs],
        "forecast_rmse_ratio": score(checks.forecast_rmse_ratio, first_out),
        "impute_nrmse": score(checks.impute_nrmse, truth, masked, first_out / "completed.csv"),
    }
    return attempted, failures, metrics, detail


def measure_trace(workload: Workload, seed: int, work: Path, deadline: float, trace_path: Path, facts: dict):
    """One untraced child run, then the same pipeline in-process with spans."""
    _, masked = make_inputs(workload, seed, work, deadline)
    out = work / "out"
    log = work / "untraced.log"
    untraced = run_child(["-m", "malaria_forecast.cli", *pipeline_argv(workload, seed, masked, out)], log, deadline)
    if untraced.code != 0:
        raise ChildFailed(f"untraced run exited {untraced.code}: {_last_line(log)}")
    wall_u = untraced.wall_s
    problems, reference = check_run(masked, out, None)
    failures = {"untraced": problems} if problems else {}
    shutil.rmtree(out)

    sys.path.insert(0, str(SRC))
    import malaria_forecast.cli as cli

    tracer = tracing.Tracer(hidden=workload.hidden)
    tracer.install()
    try:
        with open(work / "traced.log", "w", encoding="utf-8") as fh, redirect_stderr(fh):
            start = time.perf_counter()
            code = cli.main(pipeline_argv(workload, seed, masked, out))
            wall_t = time.perf_counter() - start
    finally:
        tracer.uninstall()
    if code != 0:
        raise ChildFailed(f"traced run exited {code}: {_last_line(work / 'traced.log')}")
    problems = check_run(masked, out, reference)[0]
    if problems:
        failures["traced"] = problems

    metrics = tracer.layer_metrics(wall_t, workload.n_trees)
    metrics["trace.wall_s"] = (wall_t, "s")
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    metrics["lstm.forecast_rmse_ratio"] = (score(checks.forecast_rmse_ratio, out) or 0.0, "ratio")
    forest_s = sum(s.duration for s in tracer.spans if s.name == "imputation.forest_fit")
    detail = {
        "untraced_pipeline_s": wall_u,
        "imputation.forest_fit_s": forest_s,
        "imputation.forest_predict_s": sum(s.duration for s in tracer.spans if s.name == "imputation.forest_predict"),
        "imputation.tree_ms": 1000.0 * forest_s / max(metrics["imputation.trees_fitted"][0], 1),
        "spans": len(tracer.spans),
        "untraced_functions": tracer.missing,
        "unread_call_facts": tracer.attr_failures[:20],
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    tracer.write_jsonl(trace_path, {"facts": facts, "detail": detail})
    return 2, failures, metrics, detail


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpuinfo: dict[str, str] = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpuinfo.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpuinfo.get("model name", platform.processor()),
        "cpu_cache": cpuinfo.get("cache size", "?"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
        "note": "working sets are at most a few hundred KB and fit in cache; no memory-bandwidth claim",
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring window of the untraced runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "malaria_forecast" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + workload.budget_s
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir()
    facts = machine_facts()
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}.jsonl"
            attempted, failures, metrics, detail = measure_trace(workload, args.seed, work, deadline, trace_path, facts)
        else:
            attempted, failures, metrics, detail = measure_e2e(workload, args.seed, args.seconds, work, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(failures)
    for label, problems in failures.items():
        print(f"perfbench: FAILED {label}: {problems[:5]}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "run_fail_frac": failed / attempted, "failures": failures,
                      "machine": facts, **detail}))
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
