#!/usr/bin/env python3
"""End-to-end benchmark: plan / simulate / sweep / serve.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] \
        [--seconds S] [--trace 0|1] [--quick] [--repeat N] [--out FILE]

One **run** is one workload on one seed: it prints every metric by name
with its unit and then, on a line of its own, the result object.  Without
``--workload`` every workload runs; ``--repeat N`` makes N runs a workload
on seeds SEED, SEED+1, ...; ``--trace 1`` makes traced runs, which report
the per-layer metrics instead of the end-to-end ones; ``--out`` writes
the summary ``compare.py`` reads.

Each run measures its workload in a fresh child process, so peak memory
and first-touch costs are the workload's own.  ``BENCHMARK.json`` at the
repository root is the single list of workloads, metric names and units;
a workload that emits anything else fails the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import (
    DEFAULT_SEED,
    HERE,
    OUT_DIR,
    ROOT,
    SRC,
    load_contract,
    log,
    median,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Two children a run (a set-up, the measured one) must fit the 180 s the
#: driver gives a run; a healthy child ends within 60.
CHILD_TIMEOUT_S = 80
QUICK_SECONDS = 1.5


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------

def child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(args.workload).Workload(
        args.seed, args.quick)
    traced = args.trace == 1
    try:
        workload.warm_up()
        measured = time.perf_counter() - args.spawned_at
        setup = {"setup_s": measured * workload.setup_speed,
                 "measured": measured}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        workload.measure(args.seconds, traced)
    finally:
        workload.close()
    if traced:
        metrics: Dict[str, Any] = {
            name: {"value": value}
            for name, value in workload.per_layer().items()
        }
        workload.tracer.write_chrome_trace(
            OUT_DIR / f"trace-{args.workload}.json")
    else:
        metrics = workload.end_to_end()
        metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb()}
    print(json.dumps({
        **setup,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "layers": workload.tracer.self_times(),
        "samples": workload.raw_samples(),
    }))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn children, check names against the contract, report
# ----------------------------------------------------------------------

def spawn(workload: str, seed: int, seconds: float, trace: int, quick: bool,
          setup_only: bool = False) -> Dict[str, Any]:
    """Run one child to completion and return the object it printed."""
    command = [
        sys.executable, "-u", str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--spawned-at", repr(time.perf_counter()),
    ]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    # A session of its own, so that whatever the child started (the
    # server) dies with it even when the child is killed or crashes.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(contract: Dict[str, Any], workload: str, seed: int,
                 seconds: float, trace: int, quick: bool) -> Dict[str, Any]:
    """One run: the extra set-ups, the measured child, the name checks."""
    setups: List[Dict[str, float]] = []
    if trace == 0 and not quick:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn(workload, seed, seconds, trace, quick,
                                setup_only=True))
    result = spawn(workload, seed, seconds, trace, quick)
    setups.append(result)
    emitted = result["metrics"]
    declared = contract["per_layer" if trace else "end_to_end"]
    if trace == 0:
        emitted["setup_s"] = {
            "value": median([s["setup_s"] for s in setups]),
            "measured": median([s["measured"] for s in setups]),
            "n": len(setups)}
    unknown = set(emitted) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"{workload}: metrics not in BENCHMARK.json: "
                         f"{sorted(unknown)}")
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in emitted:
            if trace == 0:
                raise SystemExit(f"{workload}: missing metric {name}")
            # A layer this workload never calls did no work: report 0, so
            # that the isolation between workloads is itself a number.
            emitted[name] = {"value": 0.0}
        metrics[name] = dict(emitted[name], unit=spec["unit"])
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "layers": result["layers"],
        "samples": result["samples"],
    }


def print_table(workload: str, seed: int, result: Dict[str, Any]) -> None:
    print(f"== {workload} (seed {seed}): {result['attempted']} operations, "
          f"{result['failed']} failed ==")
    for name, metric in result["metrics"].items():
        spread = ""
        if "n" in metric:
            spread = "  (" + ", ".join(
                f"{key} {metric[key]:.6g}"
                for key in ("measured", "iqr", "min", "p99", "n", "speed")
                if key in metric) + ")"
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}{spread}")
    for layer, row in sorted(result["layers"].items()):
        print(f"  layer {layer:24s} {row['spans']:7d} spans "
              f"{row['busy_s']:10.4f} s busy")


def result_line(result: Dict[str, Any]) -> str:
    """The contract's result object: value and unit only."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed part of a run (default: BENCHMARK.json's "
                             f"run_seconds; {QUICK_SECONDS} with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, which report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="same code paths, sizes cut (selftest)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds SEED, SEED+1, ...")
    parser.add_argument("--out", help="write the summary of all runs here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: {SRC / 'repro'} not found; the benchmark measures the "
            "repository it sits in")
        return 2
    if args.child:
        return child(args)
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    if args.workload and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; have {known}")
    seconds = args.seconds or (
        QUICK_SECONDS if args.quick else contract["run_seconds"])
    summary: Dict[str, Any] = {
        "seed": args.seed, "seconds": seconds, "quick": args.quick,
        "trace": args.trace, "workloads": {},
    }
    failed = 0
    for name in [args.workload] if args.workload else known:
        runs = summary["workloads"].setdefault(name, {"runs": []})["runs"]
        for seed in range(args.seed, args.seed + args.repeat):
            result = run_workload(contract, name, seed, seconds, args.trace,
                                  args.quick)
            print_table(name, seed, result)
            print(result_line(result))
            runs.append(dict(result, seed=seed))
            failed += result["failed"]
    # The benchmark defines the yardstick; it claims no gain.
    summary["claim"] = None
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
