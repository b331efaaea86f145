"""Quick perf smoke target: ``python -m benchmarks.quick``.

Runs the simulator/sizing throughput benchmarks (every simulation
lane, grouped per function so the ratios read off the table
directly, plus ``test_fleet_cell_latency``: one fleet job's topology
build and single-replication amba run, batched vs megabatch, in
``ms_per_cell``), the compiled-kernel micro-benches, the
execution-runtime benches (serial vs pooled replications, cold vs warm
sweeps), the distributed-queue benches
(``bench_dist_overhead``: trivial jobs through bulk leases and
batched uploads, ``bench_dist_rpc_latency``: broker round trips at
1, 24 and 96 KiB, ``bench_dist_connect_latency``: one ``connect()``
plus its first call, ``bench_dist_matrix_pass``: one warm ``run_matrix``
pass through a broker and one worker, in ``jobs_per_second``, and
``bench_dist_makespan``: a skewed matrix under cost scheduling), the observability hot-path bench
(``bench_obs_overhead``: obs off vs metrics vs tracing), and the
start-up benches (``bench_startup``: ``import repro.cli``, the imports
of ``repro dist worker``, a whole ``scenarios list``, ``import
repro.core.sizing`` and a whole ``size --scenario amba``, each in a
fresh interpreter) with
``--benchmark-min-rounds=3`` — a couple
of minutes, meant
to run on every PR so perf regressions in the hot paths are visible
immediately.  ``make bench-quick`` wraps this module; CI passes
``--benchmark-json`` through ``BENCH_ARGS`` and uploads the result so
the ``BENCH_*.json`` perf trajectory accumulates per run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    args = [
        str(bench_dir / "bench_sim_throughput.py"),
        str(bench_dir / "bench_compiled_kernels.py"),
        str(bench_dir / "bench_exec_runtime.py"),
        str(bench_dir / "bench_dist.py"),
        str(bench_dir / "bench_obs_overhead.py"),
        str(bench_dir / "bench_startup.py"),
        "--benchmark-min-rounds=3",
        # Group by (explicit group, function): the scenario-parametrized
        # simulator benches set one group per scenario, so heap vs
        # batched render side by side with the relative speedup column
        # for every scenario; ungrouped benches fall back to per-func.
        "--benchmark-group-by=group,func",
        "-q",
    ]
    args.extend(sys.argv[1:])
    return pytest.main(args)


if __name__ == "__main__":
    raise SystemExit(main())
