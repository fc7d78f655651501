#!/usr/bin/env python
"""Perf-regression gate: rerun the workloads, compare to BENCH_perf.json.

Fails (exit 1) when any recorded workload is more than ``--threshold``
(default 2.0) times slower than its recorded seconds, when a recorded
workload disappeared from the registry, or when a correctness flag in a
workload's detail (e.g. warm == cold solves) comes back false.
New workloads that are not yet recorded are reported but don't fail —
refresh the baseline with ``tools/perf_report.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from perf import REPORT_PATH, load_report, run_all  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail when fresh/recorded exceeds this ratio")
    parser.add_argument("--baseline", type=Path, default=REPORT_PATH)
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"error: {args.baseline} missing — run tools/perf_report.py first")
        return 1
    recorded = load_report(args.baseline).get("workloads", {})
    fresh = run_all()

    failures = []
    name_w = max(len(n) for n in set(recorded) | set(fresh))
    for name, entry in fresh.items():
        seconds = entry["seconds"]
        base = recorded.get(name, {}).get("seconds")
        if base is None:
            print(f"{name:<{name_w}}  {seconds:>9.4f}s  (new — not recorded)")
            continue
        ratio = seconds / base if base > 0 else float("inf")
        status = "ok" if ratio <= args.threshold else "REGRESSION"
        print(f"{name:<{name_w}}  {seconds:>9.4f}s  vs {base:.4f}s  "
              f"{ratio:5.2f}x  {status}")
        if ratio > args.threshold:
            failures.append(
                f"{name}: {seconds:.4f}s is {ratio:.2f}x the recorded "
                f"{base:.4f}s (threshold {args.threshold:.1f}x)"
            )
        for key, value in entry.get("detail", {}).items():
            if isinstance(value, bool) and not value:
                failures.append(f"{name}: detail flag {key!r} is false")
        # Absolute-bound gate: workloads may expose a "gated_bounds" dict
        # of {metric: {"value": v, "min": m}} / {..., "max": M} entries —
        # hard floors/ceilings independent of the recorded baseline (the
        # recovery workload's >=5x warm re-plan and bounded
        # minibatches-lost live here).
        for key, spec in entry.get("detail", {}).get("gated_bounds", {}).items():
            value = spec.get("value")
            if value is None:
                failures.append(f"{name}: gated bound {key!r} has no value")
                continue
            if "min" in spec and value < spec["min"]:
                failures.append(
                    f"{name}: {key} {value:.4g} is below the required "
                    f"minimum {spec['min']:.4g}")
            if "max" in spec and value > spec["max"]:
                failures.append(
                    f"{name}: {key} {value:.4g} exceeds the allowed "
                    f"maximum {spec['max']:.4g}")
        # Latency gate: workloads may expose a "gated_latency_ms" dict
        # (the loadgen's p50/p99); each entry is held to the same ratio
        # threshold as the headline seconds.
        fresh_latency = entry.get("detail", {}).get("gated_latency_ms", {})
        base_latency = (
            recorded.get(name, {}).get("detail", {}).get("gated_latency_ms", {})
        )
        for key, value in fresh_latency.items():
            base_value = base_latency.get(key)
            if base_value is None or base_value <= 0:
                continue
            latency_ratio = value / base_value
            if latency_ratio > args.threshold:
                failures.append(
                    f"{name}: latency {key} {value:.3f}ms is "
                    f"{latency_ratio:.2f}x the recorded {base_value:.3f}ms "
                    f"(threshold {args.threshold:.1f}x)"
                )
    for name in recorded:
        if name not in fresh:
            failures.append(f"{name}: recorded in baseline but no longer registered")

    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
