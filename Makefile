PYTHON ?= python

.PHONY: test perf verify

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Refresh the BENCH_perf.json baseline (run on a quiet machine).
perf:
	$(PYTHON) tools/perf_report.py

# Every CI step (tier-1, smokes, docs, selftest, perf gate) — the single
# pre-merge entry point.
verify:
	bash tools/verify.sh
