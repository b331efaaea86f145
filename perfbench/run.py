"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload experiment-netproc --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``items_per_s``, ``peak_rss_mb``); ``--trace 1`` runs one untraced
iteration, then traced ones, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark
is closed-loop: one benchmark process issues each iteration after the
previous one completes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric units; every name is reported on every workload.
PER_LAYER_UNITS = {
    "startup.import_s": "s",
    "arch.topology_s": "s",
    "core.split_s": "s",
    "core.compiled.build_s": "s",
    "core.compiled.refresh_s": "s",
    "core.compiled.rebuilds": "count",
    "core.lp.assemble_s": "s",
    "core.lp.solve_cold_s": "s",
    "core.lp.solve_warm_s": "s",
    "core.lp.solves": "count",
    "core.lp.iterations": "count",
    "core.sizing.self_s": "s",
    "core.sizing.fixed_point_iterations": "count",
    "core.sizing.converged_ratio": "ratio",
    "core.allocate_s": "s",
    "exec.sweep.self_s": "s",
    "policies.calibrate_s": "s",
    "sim.build_s": "s",
    "sim.run_s": "s",
    "sim.runs": "count",
    "sim.packets": "count",
    "sim.host_ns_per_packet": "ns",
    "dist.executor.self_s": "s",
    "dist.overhead_ms_per_job": "ms",
    "dist.job_runtime_p50_ms": "ms",
    "dist.job_runtime_p90_ms": "ms",
    "dist.jobs_per_lease": "count",
    "dist.jobs_per_upload": "count",
    "dist.cache.hit_ratio": "ratio",
    "dist.cache.bytes_per_entry": "bytes",
    "dist.steals": "count",
    "dist.reaped_jobs": "count",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}

WORKLOAD_NAMES = ("experiment-netproc", "sizing", "fleet-small")


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # A child run that only sets up, reports its set-up time and exits.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """Set the workload up again in a fresh interpreter; its set-up time."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120)
    return json.loads(done.stdout.decode().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, tracer=None):
    """Iterate until ``seconds`` have passed and the workload's
    ``min_iterations`` are done (traced: one untraced, then at least one
    traced).  Returns the untraced and traced iteration walls and the
    (attempted, failed) operation counts."""
    walls, traced_walls = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and bool(walls)
        try:
            if traced:
                output, wall = tracer.region(workload.iteration)
            else:
                begin = time.perf_counter()
                output = workload.iteration()
                wall = time.perf_counter() - begin
            ops, bad = workload.check(output)
        except Exception:
            traceback.print_exc()
            wall = None
            ops = bad = workload.ops_per_iteration()
        attempted += ops
        failed += bad
        if wall is not None:
            (traced_walls if traced else walls).append(wall)
        enough = len(traced_walls) >= 1 if tracer else len(walls) >= workload.min_iterations
        if time.perf_counter() - start >= seconds and (enough or wall is None):
            return walls, traced_walls, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        begin = time.perf_counter()
        import repro.cli  # noqa: F401  (the user-facing entry point)

        import_s = time.perf_counter() - begin
        from perfbench import workloads
        from perfbench.tracer import Tracer
    except ImportError as exc:
        print("error: cannot import the program: %s" % exc, file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.load_reference(), trace=bool(args.trace)
    )
    try:
        workload.setup()
        setups = [process_age()]
        if args.setup_probe:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        setups += [probe_setup(args) for _ in range(workload.setup_samples - 1)]
        tracer = None
        if args.trace:
            tracer = Tracer()
            workloads.install_layers(tracer)
        workload.begin_measure()
        walls, traced_walls, attempted, failed = measure(workload, args.seconds, tracer)
        peak_kb = workloads.peak_rss_kb() + workload.children_peak_kb()
        if not (walls and (traced_walls or not tracer)):
            print("error: no iteration completed", file=sys.stderr)
            return 1
        wall = statistics.median(walls)
        if tracer:
            iterations = len(traced_walls)
            values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
            values.update(workloads.traced_layer_metrics(tracer, iterations))
            values.update(workload.layer_metrics(iterations))
            values["startup.import_s"] = import_s
            values["unattributed_s"] = tracer.unattributed(sum(traced_walls)) / iterations
            values["trace_overhead_s"] = statistics.mean(traced_walls) - wall
            units = PER_LAYER_UNITS
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": wall,
                "items_per_s": workload.items_per_iteration / wall,
                "peak_rss_mb": peak_kb / 1024.0,
            }
            units = END_TO_END_UNITS
    finally:
        workload.teardown()

    for name, unit in units.items():
        print("%-36s %14.6g %s" % (name, values[name], unit))
    print("%-36s %14.6g %s" % ("error_rate", failed / max(attempted, 1), "failed/attempted"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
