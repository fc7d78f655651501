#!/usr/bin/env python3
"""Self-test of the benchmark harness (about a minute).

Runs the ``--quick`` suite — the same code paths with sizes cut — untraced
and traced, twice on one seed and once on another, and asserts what the
full-size numbers rest on: the result schema, that ``BENCHMARK.json`` lists exactly the workloads
and metrics emitted, that quantities computed by the simulated model (plan
cost, op and cell counts, simulated seconds) repeat exactly for one seed
and change with the seed, and that the benchmark refuses to run outside
the repository it measures.

    python3 benchmarks/e2e/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from typing import Any, Dict, List

from common import DEFAULT_SEED, EXACT, HERE, OUT_DIR, ROOT, load_contract

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: (workload, traced?, metric): the ``EXACT`` quantities a new seed must
#: change (counts and the paper-model grid do not depend on the seed)
SEEDED = [
    ("plan_scale", False, "cost_ratio"),
    ("simulate_scale", False, "cost_ratio"),
    ("serve_mixed", False, "cost_ratio"),
    ("plan_scale", True, "core.partition.plan_cost_s"),
    ("simulate_scale", True, "sim.executor.simulated_s"),
]


def check(ok: bool, what: str) -> None:
    print(f"  {'ok' if ok else 'FAIL'}  {what}")
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def quick_suite(seed: int, tag: str) -> Dict[bool, Dict[str, Any]]:
    """The quick suite on one seed: {traced?: its summary}."""
    summaries = {}
    for traced in (False, True):
        out = OUT_DIR / f"selftest-{tag}-trace{int(traced)}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--quick",
             "--trace", str(int(traced)), "--seed", str(seed),
             "--out", str(out)],
            cwd=str(ROOT), stdout=subprocess.DEVNULL, timeout=170)
        check(proc.returncode == 0,
              f"quick suite ({tag}, seed {seed}, trace {int(traced)}) exits 0")
        with open(out) as f:
            summaries[traced] = json.load(f)
    return summaries


def value(results: Dict[bool, Dict[str, Any]], workload: str, traced: bool,
          metric: str) -> float:
    run = results[traced]["workloads"][workload]["runs"][0]
    return run["metrics"][metric]["value"]


def check_contract(contract: Dict[str, Any]) -> None:
    check(set(contract) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    names: List[str] = []
    for key, fields in (("workloads", {"name", "why"}),
                        ("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for item in contract[key]:
            check(set(item) == fields, f"{key} entry {item.get('name')!r} "
                                       f"has exactly {sorted(fields)}")
            names.append(item["name"])
            if "unit" in item:
                check(bool(UNIT.fullmatch(item["unit"]))
                      and item["better"] in ("lower", "higher"),
                      f"{item['name']}: unit and direction are well-formed")
    check(all(NAME.fullmatch(n) for n in names), "every name is well-formed")
    check(len(set(names)) == len(names), "every name is used once")
    check(all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"]),
          "every bound is in (0, 0.25]")
    check(any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                    "bound": m["bound"]} for m in contract["end_to_end"]),
          "setup_s is an end-to-end metric in s, lower is better")
    runs = 4 + 22 * len(contract["workloads"])
    check(2 <= len(contract["workloads"]) <= 8
          and 1 <= contract["run_seconds"] <= 60,
          f"{len(contract['workloads'])} workloads, {runs} driver runs")


def check_schema(contract: Dict[str, Any],
                 results: Dict[bool, Dict[str, Any]]) -> None:
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        summary = results[traced]
        check(list(summary)[-1] == "claim" and summary["claim"] is None,
              f'{key} summary ends with "claim": null')
        check(list(summary["workloads"])
              == [w["name"] for w in contract["workloads"]],
              f"{key}: the workloads run are exactly BENCHMARK.json's")
        for workload, entry in summary["workloads"].items():
            run = entry["runs"][0]
            check(run["correct"] is True and run["failed"] == 0
                  and run["attempted"] >= 1,
                  f"{workload}/{key}: operations attempted, none failed")
            check(list(run["metrics"])
                  == [m["name"] for m in contract[key]],
                  f"{workload}/{key}: metrics are exactly BENCHMARK.json's")
            check(all(isinstance(m["value"], (int, float))
                      and m["unit"] == spec["unit"]
                      for m, spec in zip(run["metrics"].values(),
                                         contract[key])),
                  f"{workload}/{key}: every metric is a number with its unit")
            if not traced:
                check(all(m["value"] > 0 for m in run["metrics"].values()),
                      f"{workload}: no end-to-end metric is 0")


def check_refuses_outside_repo() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: exit non-zero, print no result."""
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload",
             "plan_scale", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "outside the repository: non-zero exit, no result printed")


def main() -> int:
    contract = load_contract()
    check_contract(contract)
    check_refuses_outside_repo()
    first = quick_suite(DEFAULT_SEED, "a")
    again = quick_suite(DEFAULT_SEED, "b")
    other = quick_suite(DEFAULT_SEED + 1, "c")
    check_schema(contract, first)
    declared = {traced: [m["name"] for m in contract[key]]
                for traced, key in ((False, "end_to_end"), (True, "per_layer"))}
    for workload in first[False]["workloads"]:
        for traced, names in declared.items():
            for metric in (m for m in EXACT if m in names):
                check(value(first, workload, traced, metric)
                      == value(again, workload, traced, metric),
                      f"{workload}: {metric} repeats exactly for one seed")
    for workload, traced, metric in SEEDED:
        check(value(first, workload, traced, metric)
              != value(other, workload, traced, metric),
              f"{workload}: {metric} changes with the seed")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
