#!/usr/bin/env python
"""Refresh BENCH_perf.json: run the perf workloads and record the results.

Usage:
    python tools/perf_report.py            # run, print table, write report
    python tools/perf_report.py --dry-run  # run + print, don't write
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def print_results(results: dict, previous: dict | None) -> None:
    name_w = max(len(name) for name in results)
    print(f"{'workload':<{name_w}}  {'seconds':>10}  {'previous':>10}  {'ratio':>6}")
    for name, entry in results.items():
        prev = (previous or {}).get(name, {}).get("seconds")
        prev_text = f"{prev:.4f}" if prev else "-"
        ratio = f"{entry['seconds'] / prev:.2f}x" if prev else "-"
        print(
            f"{name:<{name_w}}  {entry['seconds']:>10.4f}  {prev_text:>10}  {ratio:>6}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the perf workloads and refresh BENCH_perf.json.")
    parser.add_argument("--dry-run", action="store_true",
                        help="run and print, but leave BENCH_perf.json alone")
    args = parser.parse_args(argv)

    # Imported after parsing, so --help or a mistyped flag runs nothing.
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from perf import REPORT_PATH, load_report, run_all, write_report

    previous = None
    if REPORT_PATH.exists():
        previous = load_report().get("workloads", {})
    results = run_all()
    print_results(results, previous)
    if args.dry_run:
        print("\n--dry-run: BENCH_perf.json not written")
        return 0
    path = write_report(results)
    print(f"\nwrote {path.relative_to(ROOT)}")
    mem = results.get("memory_refined_solve_vgg16_16w", {}).get("detail", {})
    if mem:
        print(
            f"refined plan {mem['config']} (bound picked {mem['bound_config']} "
            f"at {mem['memory_limit_gb']:.0f} GB/worker):"
        )
        print("  stage         " + "  ".join(
            f"{i:>7}" for i in range(len(mem["stage_seconds"]))))
        print("  seconds       " + "  ".join(
            f"{t:7.4f}" for t in mem["stage_seconds"]))
        print("  boundary s    " + "  ".join(
            f"{t:7.4f}" for t in mem["boundary_seconds"]) + "      - ")
        print("  memory (GB)   " + "  ".join(
            f"{g:7.2f}" for g in mem["stage_memory_gb"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
