"""List the executable lines of src/malaria_forecast that tier-1 never runs.

Run from anywhere: ``python tools/never_run.py [pytest args]``. It runs the
tier-1 command with a ``sitecustomize`` first on ``PYTHONPATH``, so that every
Python process the tests start records the src lines it runs: the pytest
process, its forked pool workers (which record before ``os._exit``) and CLI
subprocesses that keep that path. It prints each executable line that no
process ran, with its reason from REASONS, and exits 1 if tier-1 failed or
a never-run line has no reason.
"""

import os
import pathlib
import subprocess
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "malaria_forecast"
# (file, stripped source text) -> why tier-1 cannot run that line.
REASONS = {
    ("parallel.py", "except AttributeError:"): "only on an OS without sched_getaffinity",
    ("parallel.py", "return os.cpu_count() or 1"): "only on an OS without sched_getaffinity",
}
# The sitecustomize body, after a line that sets SRC and OUT.
HOOK = """import atexit, os, sys
hits = set()
def line(frame, event, arg):
    hits.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
    return line
def call(frame, event, arg):
    return line(frame, event, arg) if frame.f_code.co_filename.startswith(SRC) else None
def dump():
    sys.settrace(None)  # module globals are cleared after the atexit handlers
    with open(os.path.join(OUT, f"{os.getpid()}.hits"), "a") as fh:
        fh.writelines(f"{name} {n}\\n" for name, n in hits)
def exit_then(code, _exit=os._exit):
    dump()
    _exit(code)
os._exit = exit_then
atexit.register(dump)
sys.settrace(call)
"""


def executable(code):
    """Line numbers of ``code`` and of every code object nested in it."""
    yield from (n for _, _, n in code.co_lines() if n)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from executable(const)


def main() -> int:
    with tempfile.TemporaryDirectory() as hook:
        pathlib.Path(hook, "sitecustomize.py").write_text(f"SRC, OUT = {str(SRC)!r}, {hook!r}\n{HOOK}")
        path = os.pathsep.join(filter(None, [hook, str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        tier1 = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *sys.argv[1:]],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        )
        hits = {
            tuple(row.split(" "))
            for dump in pathlib.Path(hook).glob("*.hits")
            for row in dump.read_text().splitlines()
        }
    missing = 0
    for module in sorted(SRC.glob("*.py")):
        text = module.read_text()
        source = text.splitlines()
        for n in sorted(set(executable(compile(text, str(module), "exec")))):
            if (module.name, str(n)) not in hits:
                reason = REASONS.get((module.name, source[n - 1].strip()))
                print(f"{module.name}:{n}: {source[n - 1].strip()}  # {reason or 'NO REASON'}")
                missing += reason is None
    print(f"{missing} never-run src lines without a reason")
    return 1 if missing or tier1.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
