# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so `make check` locally predicts the gate.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint lint-json lint-sarif test claims smoke smoke-multicall smoke-cache perf perf-smoke

check: lint test smoke smoke-multicall smoke-cache perf-smoke claims

lint:
	$(PYTHON) -m repro.analysis

lint-json:
	$(PYTHON) -m repro.analysis --format json --output lint-report.json

lint-sarif:
	$(PYTHON) -m repro.analysis --format sarif --output lint-report.sarif

test:
	$(PYTHON) -m pytest -x -q

# The 22 paper-claim checks under benchmarks/ plus the speedup floors in
# benchmarks/test_perf_floors.py (pytest-benchmark timing disabled).
claims:
	$(PYTHON) -m pytest benchmarks --benchmark-disable -q

# The smoke sweep, then one trace through the JSONL writer and back through
# the streaming reader.
smoke:
	$(PYTHON) -m repro sweep --smoke
	$(PYTHON) -m repro run --duration 2 --out /tmp/athena-smoke-trace.jsonl
	$(PYTHON) -m repro analyze /tmp/athena-smoke-trace.jsonl

# Two calls sharing one cell, through the batch executor (per-call QoE rows).
smoke-multicall:
	$(PYTHON) -m repro sweep --smoke --calls 2

# The same smoke sweep twice through a fresh scenario result cache: the
# second pass must rehydrate every grid point (nonzero hit rate enforced).
smoke-cache:
	rm -rf /tmp/athena-smoke-cache
	$(PYTHON) -m repro sweep --smoke --cache-dir /tmp/athena-smoke-cache
	$(PYTHON) -m repro sweep --smoke --cache-dir /tmp/athena-smoke-cache \
		| tee /tmp/athena-smoke-cache.log
	grep -E "cache: hits=[1-9]" /tmp/athena-smoke-cache.log

# The repository benchmark: five closed-loop workloads, end-to-end and
# per-layer metrics (perf/README.md). A single workload:
#   python3 perf/run.py --workload sweep_warm --seconds 15 --trace 0
perf:
	python3 perf/run.py

# Every perf workload in smoke mode (5 operations per phase), plus the
# benchmark's self-tests.
perf-smoke:
	python3 perf/run.py --smoke
	$(PYTHON) -m pytest perf -q
