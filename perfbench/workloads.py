"""The benchmark's workloads and the program call sites a traced run wraps.

Every workload builds its inputs in :meth:`setup`, runs one timed
operation per :meth:`iteration` through the program's public API, and
checks that operation's output in :meth:`check`, which returns
``(attempted, failed)`` operations.  All three run in the
default ``ExecutionContext``: serial, uncached, ``batched`` simulation
backend.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from perfbench import checks
from perfbench.tracer import Tracer
import repro
from repro.core import compiled, lp, sizing
from repro.dist import (
    BrokerServer,
    CacheTier,
    DistExecutor,
    build_matrix,
    jobs,
    run_matrix,
)
from repro.exec import ExecutionContext, sweeps
from repro.experiments import common
from repro.policies import timeout
from repro.scenarios.spec import ScenarioSpec
from repro.sim import batched, runner, system

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: The sizing workload's mesh, whatever the seed: sizing cost varies up
#: to 4x across the ``random-mesh-8-<n>`` family (and by 30% within a
#: pool of similar members), which would make ``wall_s`` swing with it.
MESH = "random-mesh-8-1"

#: netproc's declared budget axis, swept warm-chained as table1 does.
NETPROC_BUDGETS = (160, 320, 640)

FLEET_SCENARIOS = ("amba", "coreconnect", "fig1", "single-bus-6")
FLEET_REPLICATIONS = 16
FLEET_DURATION = 200.0


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def observe_experiment(experiment) -> Dict[str, Any]:
    """The checked part of a ``ScenarioExperiment`` as plain JSON values."""
    return {
        "allocations": {
            config: {name: int(size) for name, size in allocation.sizes.items()}
            for config, allocation in experiment.allocations.items()
        },
        "threshold": float(experiment.timeout_threshold),
    }


def observe_sizing(name: str, budget: int, result) -> Dict[str, Any]:
    """The checked part of a ``SizingResult`` as plain JSON values."""
    return {
        "name": name,
        "budget": int(budget),
        "sizes": {key: int(size) for key, size in result.allocation.sizes.items()},
        "objective": float(result.expected_loss_rate),
        "converged": bool(result.converged),
        "fixed_point_iterations": int(result.fixed_point_iterations),
    }


class Workload:
    """Shared defaults; subclasses set the class attributes."""

    name = ""
    #: What one iteration completes: experiments, sizing runs, or replications.
    items_per_iteration = 1
    #: Set-ups per run, including this process's own (median reported).
    setup_samples = 2
    #: Fewest untraced iterations ``wall_s`` is the median of.
    min_iterations = 1

    def __init__(self, seed: int, reference: Dict[str, Any], trace: bool = False):
        self.seed = seed
        self.reference = reference
        self.trace = trace

    def setup(self) -> None:
        raise NotImplementedError

    def begin_measure(self) -> None:
        """Called once, after set-up, before the first iteration."""

    def iteration(self) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> Tuple[int, int]:
        raise NotImplementedError

    def ops_per_iteration(self) -> int:
        return self.items_per_iteration

    def layer_metrics(self, iterations: int) -> Dict[str, float]:
        """Workload-specific per-layer metrics of a traced run."""
        return {}

    def children_peak_kb(self) -> int:
        """Peak resident memory of the processes the workload started."""
        return 0

    def teardown(self) -> None:
        pass


class Experiment(Workload):
    """``ScenarioExperiment.build("netproc")`` at the paper's defaults:
    the pre/post/timeout configurations ``run_figure3`` builds before
    its replications (one cold sizing, one timeout calibration run).

    The replications themselves are left out: they are interpreted
    simulation, whose speed on a shared host wandered by 20-40% between
    runs however long the runs were.
    """

    name = "experiment-netproc"

    def setup(self) -> None:
        self.expected = self.reference[self.name]

    def iteration(self):
        return common.ScenarioExperiment.build("netproc")

    def check(self, output) -> Tuple[int, int]:
        return checks.check_experiment(observe_experiment(output), self.expected)

    def ops_per_iteration(self) -> int:
        return 2  # the sizing and the calibration


class Sizing(Workload):
    """table1's warm-chained netproc sweep plus one cold mesh sizing."""

    name = "sizing"
    items_per_iteration = len(NETPROC_BUDGETS) + 1

    def setup(self) -> None:
        self.expected = self.reference[self.name]
        self.inputs = []
        for name in ("netproc", MESH):
            spec, context, sizer_kwargs = common.scenario_setup(name, ExecutionContext())
            self.inputs.append((spec, context, sizer_kwargs, spec.topology()))

    def iteration(self) -> List[Tuple[str, int, Any]]:
        """``(name, budget, SizingResult)`` of every sizing run."""
        (_netproc, context, sizer_kwargs, topology), mesh = self.inputs
        sweep = context.sweep(topology, list(NETPROC_BUDGETS), sizer_kwargs=sizer_kwargs)
        runs = [
            ("netproc@%d" % budget, budget, sweep.result_for(budget))
            for budget in NETPROC_BUDGETS
        ]
        spec, context, sizer_kwargs, topology = mesh
        budget = spec.default_budget
        result = context.size(topology, budget, sizer_kwargs=sizer_kwargs)
        runs.append(("%s@%d" % (spec.name, budget), budget, result))
        return runs

    def check(self, output) -> Tuple[int, int]:
        points = [observe_sizing(*run) for run in output]
        return checks.check_sizing(points, self.expected)


class PublishingMemo(jobs.ProcessMemo):
    """A ``ProcessMemo`` that also publishes every result it stores to
    the broker's shared cache tier, so one serial pass both records the
    reference and pays each cell's sizing for the whole fleet."""

    def __init__(self, tier) -> None:
        super().__init__()
        self.tier = tier

    def put(self, key, value) -> None:
        super().put(key, value)
        self.tier.put(key, value)


class Fleet(Workload):
    """``run_matrix`` through an in-process broker and one worker."""

    name = "fleet-small"
    items_per_iteration = 0  # set in setup: one replication per job
    min_iterations = 2

    def setup(self) -> None:
        self.matrix = dict(
            scenario_names=FLEET_SCENARIOS,
            replications=FLEET_REPLICATIONS,
            duration=FLEET_DURATION,
            base_seed=self.seed,
        )
        payloads = build_matrix(**self.matrix)
        self.items_per_iteration = len(payloads)
        self.server = BrokerServer(port=0).start_in_thread()
        # Started the way a user starts one: `repro dist worker`.
        host, port = self.server.address
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        self.worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "dist", "worker", "%s:%d" % (host, port)],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        self.memo = PublishingMemo(CacheTier(remote=self.server.broker))
        self.expected = self.serial_pass().to_jsonable()
        self.executor = DistExecutor(self.server.address)
        # One job per scenario: the worker finishes its imports and
        # connects before anything is timed.
        first = {}
        for payload in payloads:
            first.setdefault(payload["scenario"], payload)
        self.executor.map(jobs.run_block, list(first.values()))

    def serial_pass(self):
        """The same blocks run serially in this process, each cell's
        sizing served by the persistent memo."""
        previous = jobs.set_active_cache(self.memo)
        try:
            return run_matrix(**self.matrix)
        finally:
            jobs.set_active_cache(previous)

    def fleet_pass(self):
        return run_matrix(**self.matrix, executor=self.executor)

    def begin_measure(self) -> None:
        self.fleet_walls: List[float] = []
        self.serial_walls: List[float] = []
        self.runtimes: List[float] = []
        self.passes = 0
        self.first_stats = self.last_stats = self.executor.stats()
        self.first_cache = self.executor.cache_stats()
        if self.trace:
            self._record_runtimes()

    def _record_runtimes(self) -> None:
        """Keep every job runtime the worker reports (the broker lives
        in this process; its RPC methods run on server threads)."""
        broker = self.server.broker
        complete_many = broker.complete_many
        runtimes = self.runtimes

        def recording_complete_many(worker_id, completions, *args, **kwargs):
            runtimes.extend(runtime for _job, _result, runtime in completions)
            return complete_many(worker_id, completions, *args, **kwargs)

        # Workers upload through complete_many at the default batch size.
        broker.complete_many = recording_complete_many

    def iteration(self):
        if not self.trace:
            return self.fleet_pass()
        # Traced runs time both passes for dist.overhead_ms_per_job.
        start = time.perf_counter()
        outcome = self.fleet_pass()
        middle = time.perf_counter()
        self.serial_pass()
        self.fleet_walls.append(middle - start)
        self.serial_walls.append(time.perf_counter() - middle)
        return outcome

    def check(self, output) -> Tuple[int, int]:
        self.passes += 1
        attempted, failed = checks.check_fleet(
            output.to_jsonable(), self.expected, FLEET_REPLICATIONS
        )
        stats = self.executor.stats()
        # A reaped job ran (at least partly) twice: a failed operation.
        failed += stats["reaped_jobs"] - self.last_stats["reaped_jobs"]
        self.last_stats = stats
        return attempted, failed

    def layer_metrics(self, iterations: int) -> Dict[str, float]:
        # Overhead from the untraced passes only: tracing slows the
        # serial pass but not the worker.
        untraced = len(self.serial_walls) - iterations
        fleet = statistics.median(self.fleet_walls[:untraced])
        serial = statistics.median(self.serial_walls[:untraced])
        stats, cache = self.last_stats, self.executor.cache_stats()

        def delta(key: str, now=stats, then=self.first_stats) -> int:
            return now[key] - then[key]

        deciles = statistics.quantiles(self.runtimes, n=10, method="inclusive")
        gets = delta("gets", cache, self.first_cache)
        return {
            "dist.overhead_ms_per_job": 1e3 * (fleet - serial) / self.items_per_iteration,
            "dist.job_runtime_p50_ms": 1e3 * statistics.median(self.runtimes),
            "dist.job_runtime_p90_ms": 1e3 * deciles[8],
            "dist.jobs_per_lease": delta("lease_jobs") / max(delta("lease_grants"), 1),
            "dist.jobs_per_upload": delta("batched_jobs") / max(delta("batched_uploads"), 1),
            "dist.cache.hit_ratio": delta("hits", cache, self.first_cache) / max(gets, 1),
            "dist.cache.bytes_per_entry": cache["bytes"] / max(cache["entries"], 1),
            "dist.steals": delta("steals") / self.passes,
            "dist.reaped_jobs": delta("reaped_jobs") / self.passes,
        }

    def children_peak_kb(self) -> int:
        return peak_rss_kb(self.worker.pid)

    def teardown(self) -> None:
        # Tolerates a set-up that failed part way.
        worker = getattr(self, "worker", None)
        if worker is not None:
            worker.terminate()
            try:
                worker.wait(10)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait(10)
        if getattr(self, "server", None) is not None:
            self.server.stop()


WORKLOADS = {cls.name: cls for cls in (Experiment, Sizing, Fleet)}


def peak_rss_kb(pid: Any = "self") -> int:
    """``VmHWM`` of a live process, in KiB."""
    with open("/proc/%s/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


# -- the call sites a traced run wraps ----------------------------------


def _solve_layer(args: tuple, kwargs: dict) -> str:
    basis = kwargs.get("warm_basis", args[5] if len(args) > 5 else None)
    return "core.lp.solve_cold" if basis is None else "core.lp.solve_warm"


def _count_solve(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["core.lp.solves"] += 1
    tracer.counts["core.lp.iterations"] += result.iterations


def _count_refresh(tracer: Tracer, args, kwargs, refreshed) -> None:
    # refresh() returns False when the block must be rebuilt.
    tracer.counts["core.compiled.rebuilds"] += not refreshed


def _count_sizing(tracer: Tracer, args, kwargs, outcome) -> None:
    result = outcome[0]
    tracer.counts["core.sizing.runs"] += 1
    tracer.counts["core.sizing.converged"] += result.converged
    tracer.counts["core.sizing.fixed_point_iterations"] += result.fixed_point_iterations


def _count_simulation(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["sim.runs"] += 1
    tracer.counts["sim.packets"] += result.total_offered


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points where callers look them up.

    Names imported with ``from module import name`` are wrapped on the
    importing module: ``solve_sparse_lp`` on ``repro.core.lp``,
    ``split``/``allocate_greedy`` on ``repro.core.sizing``, and
    ``simulate`` on both the runner and the timeout policy, whose
    calibration run would otherwise be booked under ``policies``.
    """
    tracer.wrap(ScenarioSpec, "topology", "arch.topology")
    tracer.wrap(sizing, "split", "core.split")
    for block in (compiled.CompiledBusLattice, compiled.CompiledClientChain):
        tracer.wrap(block, "__init__", "core.compiled.build")
        tracer.wrap(block, "refresh", "core.compiled.refresh", _count_refresh)
    tracer.wrap(lp.BlockProgram, "solve", "core.lp.assemble")
    tracer.wrap(lp, "solve_sparse_lp", _solve_layer, _count_solve)
    tracer.wrap(sizing.BufferSizer, "size_warm", "core.sizing", _count_sizing)
    tracer.wrap(sizing, "allocate_greedy", "core.allocate")
    tracer.wrap(sweeps, "sweep_budgets", "exec.sweep")
    tracer.wrap(common, "calibrate_timeout_threshold", "policies.calibrate")
    for module in (runner, timeout):
        tracer.wrap(module, "simulate", "sim.run", _count_simulation)
    tracer.wrap(system.CommunicationSystem, "__init__", "sim.build")
    tracer.wrap(batched.BatchedSystem, "__init__", "sim.build")
    tracer.wrap(batched.BatchedSystem, "start", "sim.build")
    tracer.wrap(DistExecutor, "map", "dist.executor")


def traced_layer_metrics(tracer: Tracer, iterations: int) -> Dict[str, float]:
    """Per-iteration means of every wrapped layer's self time and counts."""
    s, c = tracer.self_s, tracer.counts
    runs = c["core.sizing.runs"]
    packets = c["sim.packets"]
    metrics = {
        "arch.topology_s": s["arch.topology"],
        "core.split_s": s["core.split"],
        "core.compiled.build_s": s["core.compiled.build"],
        "core.compiled.refresh_s": s["core.compiled.refresh"],
        "core.compiled.rebuilds": c["core.compiled.rebuilds"],
        "core.lp.assemble_s": s["core.lp.assemble"],
        "core.lp.solve_cold_s": s["core.lp.solve_cold"],
        "core.lp.solve_warm_s": s["core.lp.solve_warm"],
        "core.lp.solves": c["core.lp.solves"],
        "core.lp.iterations": c["core.lp.iterations"],
        "core.sizing.self_s": s["core.sizing"],
        "core.sizing.fixed_point_iterations": c["core.sizing.fixed_point_iterations"],
        "core.allocate_s": s["core.allocate"],
        "exec.sweep.self_s": s["exec.sweep"],
        "policies.calibrate_s": s["policies.calibrate"],
        "sim.build_s": s["sim.build"],
        "sim.run_s": s["sim.run"],
        "sim.runs": c["sim.runs"],
        "sim.packets": packets,
        "dist.executor.self_s": s["dist.executor"],
    }
    metrics = {name: value / iterations for name, value in metrics.items()}
    # A run with no sizing has nothing unconverged.
    metrics["core.sizing.converged_ratio"] = c["core.sizing.converged"] / runs if runs else 1.0
    metrics["sim.host_ns_per_packet"] = 1e9 * s["sim.run"] / packets if packets else 0.0
    return metrics
