"""Self-test of the benchmark on a tiny pipeline (a few seconds of work).

    python3 perfbench/selftest.py

Checks that the e2e and traced runs print exactly the metrics, with units,
that BENCHMARK.json lists; that corrupted outputs are counted as failures;
and that the benchmark refuses to run where the program sources are absent.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import checks
import run

TINY = run.Workload(
    0.1, {"impute.n_trees": 3, "impute.max_iter": 1, "train.epochs": 2, "train.hidden": 4}, months=48
)
SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAIL {message}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok   {message}")


def expect_names(metrics: dict, listed: list[dict], kind: str) -> None:
    printed = {name: unit for name, (_, unit) in metrics.items()}
    wanted = {m["name"]: m["unit"] for m in listed}
    expect(printed == wanted, f"{kind} metrics and units match BENCHMARK.json")
    values = [value for value, _ in metrics.values()]
    expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{kind} values are finite numbers")


def out_dir_of(args: list[str]) -> str | None:
    return args[args.index("--out_dir") + 1] if "--out_dir" in args else None


def edit_line(path, index: int, edit) -> None:
    """Replace line ``index`` of a text file by ``edit(line)``; None drops it."""
    lines = path.read_text(encoding="utf-8").split("\n")
    new = edit(lines[index])
    lines[index:index + 1] = [] if new is None else [new]
    path.write_text("\n".join(lines), encoding="utf-8")


def bump_last_digit(text: str) -> str:
    return text[:-1] + ("1" if text[-1] != "1" else "2")


def corrupt_observed_cell(out_dir) -> None:
    """Change the last digit of the first row's temperature, which the tiny
    workload's input observes (checked below)."""
    def edit(line):
        cells = line.split(",")
        cells[3] = bump_last_digit(cells[3])
        return ",".join(cells)

    edit_line(run.Path(out_dir) / "completed.csv", 1, edit)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    (work / "e2e").mkdir(parents=True)
    (work / "trace").mkdir()
    deadline = time.monotonic() + 170.0

    attempted, failures, metrics, _ = run.measure_e2e(TINY, SEED, 0, work / "e2e", deadline)
    expect(attempted == run.MIN_PIPELINE_RUNS and not failures, f"e2e smoke run is correct {failures}")
    expect_names(metrics, spec["end_to_end"], "end_to_end")

    attempted, failures, metrics, _ = run.measure_trace(TINY, SEED, work / "trace", deadline, work / "trace.jsonl", {})
    expect(attempted == 2 and not failures, f"traced smoke run is correct {failures}")
    expect_names(metrics, spec["per_layer"], "per_layer")
    spans = [json.loads(line) for line in (work / "trace.jsonl").read_text(encoding="utf-8").splitlines()[1:]]
    expect(all({"id", "parent", "name", "start", "end", "self_s"} <= s.keys() for s in spans), "trace file holds spans")

    good = work / "e2e" / "first"
    masked = work / "e2e" / "masked.csv"
    expect(checks.read_rows(masked)[("Bubanza", 2010, 1)]["temp_mean"] != "", "first input temperature is observed")
    corruptions = {
        "changed observed cell": corrupt_observed_cell,
        "negative forecast": lambda d: edit_line(
            d / "forecasts" / "Gitega_univariate.csv", 1,
            lambda line: line.rsplit(",", 1)[0] + ",-1.0",
        ),
        "missing report row": lambda d: edit_line(d / "report.txt", 2, lambda line: None),
        "cases not conserved": lambda d: edit_line(d / "country.csv", 1, bump_last_digit),
    }
    for label, corrupt in corruptions.items():
        bad = work / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        corrupt(bad)
        problems = checks.check_out_dir(masked, bad)
        expect(bool(problems), f"{label} is a violation: {problems[:1]}")
        expect(bool(checks.compare_digests(checks.tree_digest(good), checks.tree_digest(bad))),
               f"{label} breaks byte identity")

    # A corrupted output in the measuring loop is counted against the run.
    real_run_child = run.run_child

    def corrupting_run_child(args, log_path, deadline):
        result = real_run_child(args, log_path, deadline)
        if out_dir_of(args) and result.code == 0:
            corrupt_observed_cell(out_dir_of(args))
        return result

    run.run_child = corrupting_run_child
    try:
        shutil.rmtree(work / "e2e")
        (work / "e2e").mkdir()
        attempted, failures, _, _ = run.measure_e2e(TINY, SEED, 0, work / "e2e", deadline)
    finally:
        run.run_child = real_run_child
    expect(len(failures) == attempted == run.MIN_PIPELINE_RUNS,
           f"corrupted runs counted as failed ({len(failures)}/{attempted})")

    bare = work / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-fullbatch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without program sources: non-zero exit, no result")

    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
