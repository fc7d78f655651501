#!/usr/bin/env python3
"""Compare two result sets of ``run.py --repeat N --out FILE``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians, both spreads
(distance between the quartiles of the runs, as a share of the median),
the bound ``BENCHMARK.json`` fixes, and a verdict on B against A:

- ``ok``          B's median is not worse than A's by more than the bound;
- ``worse``       it is;
- ``unresolved``  either side's spread is wider than the bound, so the
                  runs cannot tell.

Then one row per (exact metric, workload), for the quantities the
modelled system computes (``common.EXACT``: plan cost, simulated seconds,
counts).  They repeat exactly for one seed, so runs are matched **by
seed** and held to 1e-9 relative, whatever bound the medians have: ``ok``
when every common seed agrees, ``worse`` when one got worse, ``better``
otherwise.  Traced result sets have only these rows.

Failed operations on either side make a workload's rows ``worse``.
Exits 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from common import EXACT, iqr, load_contract, median, rel_equal


def runs_of(results: Dict[str, Any], workload: str) -> List[Dict[str, Any]]:
    return results["workloads"].get(workload, {}).get("runs", [])


def values_of(results: Dict[str, Any], workload: str,
              metric: str) -> Dict[int, float]:
    """seed -> value, over the runs that report the metric."""
    return {run["seed"]: run["metrics"][metric]["value"]
            for run in runs_of(results, workload) if metric in run["metrics"]}


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict[str, Any]:
    median_a, median_b = median(a), median(b)
    spread_a, spread_b = iqr(a) / median_a, iqr(b) / median_b
    change = (median_b - median_a) / median_a
    worse_by = change if better == "lower" else -change
    if max(spread_a, spread_b) > bound:
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    else:
        status = "ok"
    return {"median_a": median_a, "median_b": median_b,
            "spread_a": spread_a, "spread_b": spread_b,
            "worse_by": worse_by, "status": status}


def exact_verdict(a: Dict[int, float], b: Dict[int, float],
                  better: str) -> Optional[Dict[str, Any]]:
    """Seed by seed; None when the sets share no seed."""
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return None
    moved = [s for s in seeds if not rel_equal(a[s], b[s])]
    worse = [s for s in moved
             if (b[s] > a[s]) == (better == "lower")]
    return {"seeds": len(seeds), "moved": moved,
            "status": "worse" if worse else "better" if moved else "ok"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(args.a) as f:
        results_a = json.load(f)
    with open(args.b) as f:
        results_b = json.load(f)
    contract = load_contract()
    specs = {m["name"]: m
             for m in contract["end_to_end"] + contract["per_layer"]}

    print(f"{'workload':15s} {'metric':12s} {'unit':6s} {'median A':>12s} "
          f"{'median B':>12s} {'iqr A':>7s} {'iqr B':>7s} {'B worse':>8s} "
          f"{'bound':>6s}  verdict")
    counts = {"ok": 0, "better": 0, "worse": 0, "unresolved": 0}
    for workload in (w["name"] for w in contract["workloads"]):
        failed = sum(run["failed"] for results in (results_a, results_b)
                     for run in runs_of(results, workload))
        note = f" ({failed} failed operations)" if failed else ""
        for spec in contract["end_to_end"]:
            a = values_of(results_a, workload, spec["name"])
            b = values_of(results_b, workload, spec["name"])
            if not a or not b:
                continue
            row = verdict(list(a.values()), list(b.values()),
                          spec["better"], spec["bound"])
            if failed:
                row["status"] = "worse"
            counts[row["status"]] += 1
            print(f"{workload:15s} {spec['name']:12s} {spec['unit']:6s} "
                  f"{row['median_a']:12.6g} {row['median_b']:12.6g} "
                  f"{row['spread_a']:7.1%} {row['spread_b']:7.1%} "
                  f"{row['worse_by']:+8.1%} {spec['bound']:6.0%}  "
                  f"{row['status']}{note}")
        for name in EXACT:
            row = exact_verdict(values_of(results_a, workload, name),
                                values_of(results_b, workload, name),
                                specs[name]["better"])
            if row is None:
                continue
            if failed:
                row["status"] = "worse"
            counts[row["status"]] += 1
            moved = f", seeds {row['moved']} moved" if row["moved"] else ""
            print(f"{workload:15s} {name} by seed: {row['seeds']} seeds "
                  f"at 1e-9{moved}  {row['status']}{note}")
    print(", ".join(f"{n} {status}" for status, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
