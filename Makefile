# Developer entry points.  PYTHONPATH is prepended so the src/ layout
# works without an editable install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-quick bench

# Tier-1, CI's first step.  The slowest tests print on every run, so
# the suite's ~2-minute budget stays in view.
test:
	$(PYTHON) -m pytest -x -q --durations=20

# Perf smoke for every PR: the throughput benches plus the
# compiled-kernel and execution-runtime benches, 3 rounds minimum each.
# Extra pytest/benchmark flags pass through BENCH_ARGS (CI uses
# --benchmark-min-rounds=1 for a faster smoke).
bench-quick:
	$(PYTHON) -m benchmarks.quick $(BENCH_ARGS)

# The full benchmark suite (regenerates the paper artefacts; slow).
bench:
	$(PYTHON) -m pytest benchmarks -q
