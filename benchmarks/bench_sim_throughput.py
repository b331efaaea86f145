"""Infrastructure bench: discrete-event simulator throughput.

Not a paper artefact — tracks the events-per-second of every simulation
lane (the heap oracle, the array-native batched lane that is the
mega-batch kernel's counted fallback, and the mega-batch kernel) over a
scenario subset (the paper's netproc testbed plus two template
scenarios from the registry) so performance
regressions in the substrate, and each lane's speedup over the
reference, are visible in benchmark runs across architecture shapes.
Each throughput bench reports ``events_per_second`` in its
``extra_info`` (arrivals plus service starts over mean wall time);
``make bench-quick`` groups the lanes per scenario so the ratio
reads off directly.  ``test_fleet_cell_latency`` times the per-job
work of a fleet worker instead — one replication, and the 16-seed
block a worker runs per leased cell — in ``ms_per_cell`` and
``ms_per_replication``.
"""

import pytest

from repro import scenarios
from repro.policies.uniform import UniformSizing
from repro.sim.runner import (
    _simulate_seed,
    replication_seeds,
    simulate,
    simulate_block,
)
from repro.sim.system import CommunicationSystem

#: The bench rows: the two per-seed lanes and the mega-batch kernel.
BACKENDS = ("heap", "batched", "megabatch")

#: Simulated horizon of the throughput benches.  Long enough that the
#: event loop dominates one-time system construction.
DURATION = 400.0

#: Scenario subset the throughput/sizing benches sweep: the paper's
#: testbed plus a bridged template at each end of the size range.
BENCH_SCENARIOS = ("netproc", "fig1", "amba")


def _setup(scenario):
    """``(topology, capacities)`` of one scenario at its default budget."""
    spec = scenarios.get(scenario)
    topology = spec.topology()
    capacities = (
        UniformSizing().allocate(topology, spec.default_budget)
        .as_capacities()
    )
    return topology, capacities


def _megabatch_events(seeds, topology, capacities):
    """Events per replication of one mega-batch lane run over ``seeds``."""
    from repro.sim.megabatch import MegaBatchLane

    lane = MegaBatchLane(topology, capacities, seeds)
    lane.start()
    lane.run_until(DURATION)
    return (lane.offered.sum(axis=1) + lane.wait_cnt).tolist()


def _monitor_events(monitor):
    """Executed events = packet arrivals + service starts (the two
    event kinds of this model)."""
    return monitor.total_offered() + monitor.waiting_time_count


def _run(topology, capacities, backend):
    """One fixed-seed run; returns its executed event count."""
    if backend == "megabatch":
        return _megabatch_events([3], topology, capacities)[0]
    system = CommunicationSystem(topology, capacities, seed=3)
    if backend == "batched":
        from repro.sim.batched import BatchedSystem

        lane = BatchedSystem(system)
        lane.start()
        lane.run_until(DURATION)
    else:
        for source in system.sources:
            source.start()
        system.simulator.run_until(DURATION)
    return _monitor_events(system.monitor)


@pytest.mark.parametrize("scenario", BENCH_SCENARIOS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_simulator_throughput(benchmark, scenario, backend):
    benchmark.group = f"simulator_throughput[{scenario}]"
    topology, capacities = _setup(scenario)

    # Report throughput for the perf trajectory.
    events = benchmark(_run, topology, capacities, backend)
    assert events > 0
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["scenario"] = scenario
        benchmark.extra_info["events"] = events
        benchmark.extra_info["events_per_second"] = round(
            events / benchmark.stats["mean"]
        )


#: Replication counts of the mega-batch replication-throughput bench.
MEGABATCH_RS = (1, 8, 32)


def _run_replications(topology, capacities, backend, replications):
    """One fixed-seed replication batch; returns per-rep event counts."""
    seeds = [3 + 1000 * r for r in range(replications)]
    if backend == "megabatch":
        return _megabatch_events(seeds, topology, capacities)
    events = []
    for seed in seeds:
        from repro.sim.batched import BatchedSystem

        lane = BatchedSystem(
            CommunicationSystem(topology, capacities, seed=seed)
        )
        lane.start()
        lane.run_until(DURATION)
        events.append(_monitor_events(lane.monitor))
    return events


@pytest.mark.parametrize("replications", MEGABATCH_RS)
@pytest.mark.parametrize("backend", ("batched", "megabatch"))
def test_replication_throughput(benchmark, backend, replications):
    """Replications/s of one netproc cell: mega-batch vs serial batched.

    The mega-batch acceptance headline — one kernel cell advancing R
    replications at once vs R serial batched runs — measured on the
    paper's testbed.  Reports both ``replications_per_second`` and
    ``events_per_second`` so the diff harness tracks whichever is
    present.
    """
    benchmark.group = f"replication_throughput[netproc,R={replications}]"
    topology, capacities = _setup("netproc")

    events = sum(
        benchmark(
            _run_replications, topology, capacities, backend, replications
        )
    )
    assert events > 0
    if benchmark.stats:  # absent under --benchmark-disable
        mean = benchmark.stats["mean"]
        benchmark.extra_info["scenario"] = "netproc"
        benchmark.extra_info["replications"] = replications
        benchmark.extra_info["events"] = events
        benchmark.extra_info["events_per_second"] = round(events / mean)
        benchmark.extra_info["replications_per_second"] = round(
            replications / mean, 3
        )


#: Horizon of one fleet job in the ``fleet-small`` benchmark matrix.
FLEET_CELL_DURATION = 200.0


#: Replications per fleet cell: one, and the ~16-seed block a worker
#: runs per leased cell as one ``simulate_block`` call.
FLEET_CELL_RS = (1, 16)


@pytest.mark.parametrize("replications", FLEET_CELL_RS)
@pytest.mark.parametrize("backend", ("batched", "megabatch"))
def test_fleet_cell_latency(benchmark, backend, replications):
    """Milliseconds per fleet cell: the per-job work of a fleet worker.

    Shaped like :func:`repro.dist.jobs.run_block` once the cell's
    sizing is cached: build the scenario topology fresh, then simulate
    ``replications`` seeds of amba at horizon 200 — through one
    ``simulate_block`` on the mega-batch kernel, or one batched-lane
    run per seed.  Topology routing and lane construction are inside
    the timed region, as they are on a worker.  Reports
    ``ms_per_cell`` and ``ms_per_replication``.
    """
    from repro.core.sizing import BufferSizer

    benchmark.group = f"fleet_cell_latency[amba,R={replications}]"
    spec = scenarios.get("amba")
    capacities = (
        BufferSizer(total_budget=spec.default_budget)
        .size(spec.topology())
        .allocation.as_capacities()
    )
    seeds = replication_seeds(replications, base_seed=3)

    def cell():
        topology = spec.topology()
        if backend == "megabatch":
            return simulate_block(
                topology, capacities, duration=FLEET_CELL_DURATION,
                seeds=seeds,
            )
        return [
            _simulate_seed(
                topology, capacities, duration=FLEET_CELL_DURATION,
                seed=seed,
            )
            for seed in seeds
        ]

    results = benchmark(cell)
    assert len(results) == replications
    assert all(result.total_offered > 0 for result in results)
    if benchmark.stats:  # absent under --benchmark-disable
        mean = benchmark.stats["mean"]
        benchmark.extra_info["scenario"] = "amba"
        benchmark.extra_info["replications"] = replications
        benchmark.extra_info["ms_per_cell"] = round(1e3 * mean, 3)
        benchmark.extra_info["ms_per_replication"] = round(
            1e3 * mean / replications, 3
        )


@pytest.mark.parametrize("scenario", BENCH_SCENARIOS)
def test_backend_equivalence_smoke(scenario):
    """All three lanes agree bitwise on the bench workloads.

    Guards the determinism contract right where the speedup is
    measured: identical fixed-seed metrics, so the throughput
    comparison above is apples to apples — on every bench scenario.
    """
    topology, capacities = _setup(scenario)
    heap = _simulate_seed(
        topology, capacities, duration=150.0, seed=3, lane="heap"
    )
    batched = _simulate_seed(
        topology, capacities, duration=150.0, seed=3, lane="batched"
    )
    megabatch = simulate(topology, capacities, duration=150.0, seed=3)
    assert heap == batched
    assert heap == megabatch


@pytest.mark.parametrize("scenario", BENCH_SCENARIOS)
def test_sizing_throughput(benchmark, scenario):
    """End-to-end CTMDP sizing latency per scenario at default budget."""
    from repro.core.sizing import BufferSizer

    benchmark.group = f"sizing_throughput[{scenario}]"
    spec = scenarios.get(scenario)
    topology = spec.topology()

    def run():
        return BufferSizer(
            total_budget=spec.default_budget
        ).size(topology)

    result = benchmark.pedantic(run, iterations=1, rounds=2)
    assert result.allocation.total == spec.default_budget
    benchmark.extra_info["scenario"] = scenario
