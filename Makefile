# Convenience targets for the Data Center Sprinting reproduction.

.PHONY: install check lint lint-changed test perfbench-selftest bench bench-check report examples sweep-smoke backends-smoke fault-smoke clean

install:
	pip install -e . || python setup.py develop

check: lint test

# Domain-aware static analysis (repro.analysis) always runs; mypy and ruff
# run when installed (pip install -e .[lint]) and their failures are fatal.
lint:
	python -m repro lint src
	@if command -v mypy >/dev/null 2>&1; then \
		echo "mypy --strict"; mypy --strict src/repro || exit 1; \
	else echo "mypy not installed; skipping (CI enforces it)"; fi
	@if command -v ruff >/dev/null 2>&1; then \
		echo "ruff check"; ruff check src tests || exit 1; \
	else echo "ruff not installed; skipping (CI enforces it)"; fi

# Incremental lint for the edit loop: the whole tree is still analysed
# (cross-file rules need it) but only findings in files changed since
# origin/main are reported.
lint-changed:
	python -m repro lint src --changed-since origin/main

test:
	pytest tests/

# Self-tests of the benchmark harness (perfbench/).  It wraps program
# functions by name, so a rename or deletion of one fails here.
perfbench-selftest:
	python3 -m pytest perfbench/tests -q

# Engine throughput first (recording machine-readable numbers into
# BENCH_engine.json — see docs/PERFORMANCE.md), then the figure suite.
bench:
	pytest benchmarks/bench_engine_performance.py \
		benchmarks/bench_batch_kernel.py \
		benchmarks/bench_span_engine.py \
		benchmarks/bench_sweep_grid.py --benchmark-only -s \
		--benchmark-json=BENCH_engine.json
	pytest benchmarks/ --benchmark-only -s \
		--ignore=benchmarks/bench_engine_performance.py \
		--ignore=benchmarks/bench_batch_kernel.py \
		--ignore=benchmarks/bench_span_engine.py \
		--ignore=benchmarks/bench_sweep_grid.py

# Regression gate: run the engine benchmarks fresh and compare against the
# committed baseline (fail on a >25% throughput drop).  Absolute numbers —
# for machines unlike the baseline's, use
# `python benchmarks/check_bench.py BENCH_engine.json --relative-to
# bench_full_ms_run` (what CI does).
bench-check:
	pytest benchmarks/bench_engine_performance.py \
		benchmarks/bench_batch_kernel.py \
		benchmarks/bench_span_engine.py \
		benchmarks/bench_sweep_grid.py --benchmark-only -s \
		--benchmark-json=BENCH_engine.json
	python benchmarks/check_bench.py BENCH_engine.json

report:
	python -m repro report REPORT.md

# Exercise the parallel sweep engine end-to-end: a 2-worker Oracle-table
# build on a small grid, once cold and once from the warm cache.
sweep-smoke:
	rm -rf .repro-sweep-smoke
	python -m repro sweep --table --workers 2 \
		--cache-dir .repro-sweep-smoke \
		--durations 1,5 --degrees 2.8,3.2 --candidates 2.0,3.0,4.0
	python -m repro sweep --table --workers 2 \
		--cache-dir .repro-sweep-smoke \
		--durations 1,5 --degrees 2.8,3.2 --candidates 2.0,3.0,4.0 \
		| tee /dev/stderr | grep -q "0 miss(es)"
	rm -rf .repro-sweep-smoke
	@echo "sweep smoke ok: warm rerun answered entirely from cache"

# Exercise the work-queue backend end-to-end: two sweep-worker processes
# drain the queue a driver fills, and the resulting table must be
# line-identical to the in-process backend's on the same grid.
backends-smoke:
	rm -rf .repro-smoke-queue .repro-smoke-cache-q .repro-smoke-cache-i \
		.repro-smoke-q.txt .repro-smoke-i.txt
	python -m repro sweep-worker .repro-smoke-queue --idle-timeout 60 & \
	python -m repro sweep-worker .repro-smoke-queue --idle-timeout 60 & \
	python -m repro sweep --table \
		--backend work-queue --queue-dir .repro-smoke-queue \
		--cache-dir .repro-smoke-cache-q \
		--durations 1,5 --degrees 2.8,3.2 --candidates 2.0,3.0,4.0 \
		| grep -v "sweep engine" > .repro-smoke-q.txt; \
	wait
	python -m repro sweep --table \
		--backend in-process \
		--cache-dir .repro-smoke-cache-i \
		--durations 1,5 --degrees 2.8,3.2 --candidates 2.0,3.0,4.0 \
		| grep -v "sweep engine" > .repro-smoke-i.txt
	diff .repro-smoke-q.txt .repro-smoke-i.txt
	python -m repro cache gc --dir .repro-smoke-cache-q --max-age-s 0 \
		| tee /dev/stderr | grep -q "removed"
	rm -rf .repro-smoke-queue .repro-smoke-cache-q .repro-smoke-cache-i \
		.repro-smoke-q.txt .repro-smoke-i.txt
	@echo "backends smoke ok: work-queue table identical to in-process"

# Exercise fault injection and graceful degradation end-to-end: a fault
# mid-sprint must degrade the run, not crash it, and a faulted sweep must
# not be answered from the clean-run cache.
fault-smoke:
	python -m repro simulate --fault breaker@120s:fraction=0.5 \
		| tee /dev/stderr | grep -q "degraded to admission-control-only"
	python -m repro sweep --headroom --no-cache \
		--fault chiller@300s \
		| tee /dev/stderr | grep -q "degraded at"
	@echo "fault smoke ok: faulted runs degrade gracefully and complete"

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; \
		python $$ex > /dev/null || exit 1; \
	done; echo "all examples ran"

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	rm -rf .repro-sweep-cache .repro-sweep-smoke
