#!/usr/bin/env bash
# Single verification entry point: tier-1 tests, the generated-docs check,
# the end-to-end benchmark's selftest (its pinned call surface), and the
# perf-regression gate.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== docs/API.md is current =="
python tools/gen_api_docs.py --check

echo
echo "== benchmarks/e2e selftest =="
python3 benchmarks/e2e/selftest.py

echo
echo "== perf gate (vs BENCH_perf.json) =="
python tools/check_perf.py "$@"
