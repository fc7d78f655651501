#!/usr/bin/env python
"""Report the function lines in ``src/`` that no user surface reaches.

Runs the user surfaces -- each ``repro`` subcommand, ``examples/*.py``,
``tools/serve_smoke.py``, the e2e selftest, ``tools/check_perf.py`` and
the ``benchmarks/bench_*.py`` figure scripts -- under a ``sys.setprofile``
hook that a temporary ``sitecustomize`` installs in every python process
they start, forked pool workers included.  Then prints, per ``src/``
module, the lines of the functions no process called, and a total.

    python tools/reach.py                          # every surface (minutes)
    python tools/reach.py examples/quickstart.py   # only these scripts

A function's lines run from its first decorator to its end, less the
lines of the functions nested in it.  Each surface runs in a temporary
working directory; a process killed by a signal reports nothing.
Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CLI = ("models", "profile vgg16", "plan vgg16", "simulate vgg16",
       "sweep vgg16 --counts 4", "timeline")
SMOKE = {"elastic_recovery.py", "mixed_precision_sweep.py"}

#: Written as ``sitecustomize.py``: records each code object a process
#: calls and writes ``file:first line`` rows at exit.
HOOK = '''import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}"), "a") as out:
        out.writelines(f"{c.co_filename}:{c.co_firstlineno}\\n" for c in list(_seen))
def _forked():  # a pool worker leaves through multiprocessing's finalizers
    util = sys.modules.get("multiprocessing.util")
    if util is not None:
        util.Finalize(None, _dump, exitpriority=0)
sys.setprofile(_hook)
threading.setprofile(_hook)
os.register_at_fork(after_in_child=_forked)
atexit.register(_dump)
'''


def surfaces() -> List[List[str]]:
    """The argv (after the interpreter) of every user surface."""
    scripts = [*sorted((ROOT / "examples").glob("*.py")),
               ROOT / "tools" / "serve_smoke.py",
               ROOT / "benchmarks" / "e2e" / "selftest.py",
               ROOT / "tools" / "check_perf.py",
               *sorted((ROOT / "benchmarks").glob("bench_*.py"))]
    return ([["-m", "repro.cli", *words.split()] for words in CLI]
            + [[str(p), *(["--smoke"] if p.name in SMOKE else [])]
               for p in scripts])


def run(argvs: List[List[str]], out: str) -> None:
    """Run each argv under the hook, its dumps written to ``out``."""
    with tempfile.TemporaryDirectory() as hook:
        Path(hook, "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACH_OUT=out, PYTHONPATH=f"{hook}:{SRC}")
        for argv in argvs:
            with tempfile.TemporaryDirectory() as cwd:
                code = subprocess.run(
                    [sys.executable, *argv], cwd=cwd, env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL).returncode
            print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)


def reached(out: str) -> Set[Tuple[str, int]]:
    """``(real path, first line)`` of every code object any process called."""
    rows = set()
    for dump in Path(out).iterdir():
        for row in dump.read_text().splitlines():
            path, _, line = row.rpartition(":")
            rows.add((os.path.realpath(path), int(line)))
    return rows


def function_lines(source: str) -> Dict[int, List[int]]:
    """``{first line: its lines}`` of each function ``source`` defines."""
    owner = {}
    defs = [node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in sorted(defs, key=lambda node: node.lineno):  # outer first
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        owner.update(dict.fromkeys(range(first, node.end_lineno + 1), first))
    lines: Dict[int, List[int]] = {}
    for line, first in owner.items():
        lines.setdefault(first, []).append(line)
    return lines


def unreached(src: Path, calls: Set[Tuple[str, int]]) -> Dict[str, Tuple[int, int]]:
    """``{module: (unreached function lines, function lines)}`` under ``src``."""
    report = {}
    for path in sorted(src.rglob("*.py")):
        functions = function_lines(path.read_text(encoding="utf-8"))
        where = os.path.realpath(path)
        missed = sum(len(lines) for first, lines in functions.items()
                     if (where, first) not in calls)
        report[str(path.relative_to(src))] = (
            missed, sum(map(len, functions.values())))
    return report


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scripts", nargs="*", help="run only these scripts")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        run([[str(Path(s).resolve())] for s in args.scripts] or surfaces(),
            out)
        report = unreached(SRC, reached(out))
    for module, (missed, total) in report.items():
        if missed:
            print(f"{missed:6d} / {total:6d} {module}")
    missed, total = map(sum, zip(*report.values()))
    print(f"{missed} of {total} function lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
