#!/usr/bin/env bash
# Single verification entry point, running every CI step in CI's order:
# tier-1 tests, the fp16/fp32 sweep smoke, the generated-docs check, the
# seeded chaos suite, the price-fidelity ledger, the elastic-recovery
# smoke, the threaded-runtime example, the quickstart / cluster-planner /
# DAG / image-classification / GNMT-translation examples, the Figure 4
# and Figure 8 schedule scripts and the five print-only scripts that call
# the strategy drivers, the 1 024-worker `repro plan` smoke, the
# `repro plan --trace` and `repro simulate --trace` exports, a 64-stage
# `repro timeline`, the
# planner-service smoke, the end-to-end benchmark's selftest (its pinned
# call surface), and the perf-regression gate.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== fp16 vs fp32 sweep smoke =="
python examples/mixed_precision_sweep.py --smoke

echo
echo "== docs/API.md is current =="
python tools/gen_api_docs.py --check

echo
echo "== seeded chaos suite =="
python -m pytest -q -m chaos

echo
echo "== price-fidelity ledger =="
python -m pytest -q -m ledger

echo
echo "== elastic recovery smoke =="
python examples/elastic_recovery.py --smoke

echo
echo "== threaded runtime end to end =="
python examples/production_run.py

echo
echo "== documented examples =="
python examples/quickstart.py
python examples/cluster_planner.py
python examples/dag_partitioning.py
python examples/image_classification.py
python examples/translation_gnmt.py

echo
echo "== schedule figure scripts =="
python benchmarks/bench_fig04_1f1b_timeline.py
python benchmarks/bench_fig08_1f1b_rr.py
python benchmarks/bench_fig14_intra_batch.py
python benchmarks/bench_table1_speedup_summary.py
python benchmarks/bench_gpipe_comparison.py
python benchmarks/bench_table3_mlperf_cloud.py
python benchmarks/bench_ablation_partitioner.py

echo
echo "== largest admitted plan =="
python -m repro.cli plan vgg16 --servers 256

echo
echo "== solve-phase trace =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
python -m repro.cli plan vgg16 --servers 2 --memory-limit-bytes 1.5e9 \
    --recompute auto --tp-degrees 1 2 4 --trace "$trace_dir/solve.json"

echo
echo "== simulation-phase trace =="
python -m repro.cli simulate vgg16 --servers 2 --strategy pipedream \
    --minibatches 64 --trace "$trace_dir/simulate.json"
python -m repro.cli timeline --stages 64 --minibatches 1000 --width 120

echo
echo "== planner service smoke =="
python tools/serve_smoke.py

echo
echo "== benchmarks/e2e selftest =="
python3 benchmarks/e2e/selftest.py

echo
echo "== perf gate (vs BENCH_perf.json) =="
python tools/check_perf.py "$@"
