"""High-level simulation entry points and replication statistics.

The paper repeats every experiment for 10 iterations; :func:`replicate`
is that loop, with independent seeds and mean/confidence aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.arch.topology import Topology
from repro.errors import SimulationError
from repro.exec.pool import parallel_map, partition_blocks, resolve_jobs
from repro.sim.system import CommunicationSystem


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Loss counts are attributed to the *source* processor of each lost
    packet, matching Figure 3's per-processor bars.
    """

    duration: float
    offered: Dict[str, int]
    lost: Dict[str, int]
    timed_out: Dict[str, int]
    delivered: Dict[str, int]
    mean_waiting_time: float
    mean_end_to_end: float

    @property
    def total_lost(self) -> int:
        """Total packets lost anywhere."""
        return sum(self.lost.values())

    @property
    def total_offered(self) -> int:
        """Total packets generated."""
        return sum(self.offered.values())

    def loss_rate(self, processor: str) -> float:
        """Losses per unit time for one processor."""
        return self.lost.get(processor, 0) / self.duration

    def total_loss_rate(self) -> float:
        """System-wide losses per unit time."""
        return self.total_lost / self.duration

    def loss_fraction(self) -> float:
        """Fraction of offered packets that were lost."""
        if self.total_offered == 0:
            return 0.0
        return self.total_lost / self.total_offered


def simulate(
    topology: Topology,
    capacities: Dict[str, int],
    duration: float = 10_000.0,
    seed: int = 0,
    arbiter_kind: str = "longest_queue",
    arbiter_weights: Optional[Dict[str, float]] = None,
    timeout_threshold: Optional[float] = None,
    warmup: float = 0.0,
) -> SimulationResult:
    """Run one simulation and collect per-processor statistics.

    One seed of :func:`simulate_block`: the mega-batch kernel, or its
    counted per-seed fallback.  ``warmup`` discards an initial
    transient: statistics are measured only on the
    ``[warmup, warmup + duration]`` window.
    """
    return simulate_block(
        topology,
        capacities,
        duration=duration,
        seeds=[seed],
        arbiter_kind=arbiter_kind,
        arbiter_weights=arbiter_weights,
        timeout_threshold=timeout_threshold,
        warmup=warmup,
    )[0]


def _simulate_seed(
    topology: Topology,
    capacities: Dict[str, int],
    duration: float = 10_000.0,
    seed: int = 0,
    arbiter_kind: str = "longest_queue",
    arbiter_weights: Optional[Dict[str, float]] = None,
    timeout_threshold: Optional[float] = None,
    warmup: float = 0.0,
    lane: str = "batched",
) -> SimulationResult:
    """One seed on a per-seed lane: ``"batched"`` or the ``"heap"`` oracle.

    :func:`simulate_block`'s fallback runs the batched lane; the
    equivalence tests run both.  Warm-up runs a first window and
    snapshots the counters.  Partially consumed RNG buffers
    (interarrival chunks, service pools) are carried across the window
    boundary on both lanes, so the split windows consume the bit stream
    exactly like one continuous run.
    """
    if lane not in ("heap", "batched"):
        raise SimulationError(f"unknown per-seed lane {lane!r}")
    system = CommunicationSystem(
        topology,
        capacities,
        arbiter_kind=arbiter_kind,
        arbiter_weights=arbiter_weights,
        timeout_threshold=timeout_threshold,
        seed=seed,
    )
    if lane == "batched":
        from repro.sim.batched import BatchedSystem

        batched = BatchedSystem(system)
        batched.start()
        advance = batched.run_until
    else:
        for source in system.sources:
            source.start()
        advance = system.simulator.run_until
    baseline_offered: Dict[str, int] = {}
    baseline_lost: Dict[str, int] = {}
    baseline_timeout: Dict[str, int] = {}
    baseline_delivered: Dict[str, int] = {}
    # Instrumentation is per *window*, never per event: the drain loops
    # inside ``advance`` stay allocation-free with obs disabled (the
    # zero-allocation test in tests/test_obs.py pins this).
    if warmup > 0:
        with obs.span("sim.window") as span:
            span.set("backend", lane)
            span.set("phase", "warmup")
            advance(warmup)
        baseline_offered = dict(system.monitor.offered)
        baseline_lost = dict(system.monitor.lost)
        baseline_timeout = dict(system.monitor.timed_out)
        baseline_delivered = dict(system.monitor.delivered)
    with obs.span("sim.window") as span:
        span.set("backend", lane)
        span.set("phase", "measure")
        advance(warmup + duration)
    obs.counter("sim.windows").inc()
    monitor = system.monitor
    offered = {
        p: monitor.offered.get(p, 0) - baseline_offered.get(p, 0)
        for p in topology.processors
    }
    lost = {
        p: monitor.lost.get(p, 0) - baseline_lost.get(p, 0)
        for p in topology.processors
    }
    timed_out = {
        p: monitor.timed_out.get(p, 0) - baseline_timeout.get(p, 0)
        for p in topology.processors
    }
    delivered = {
        p: monitor.delivered.get(p, 0) - baseline_delivered.get(p, 0)
        for p in topology.processors
    }
    return SimulationResult(
        duration=duration,
        offered=offered,
        lost=lost,
        timed_out=timed_out,
        delivered=delivered,
        mean_waiting_time=monitor.mean_waiting_time(),
        mean_end_to_end=monitor.mean_end_to_end(),
    )


def simulate_block(
    topology: Topology,
    capacities: Dict[str, int],
    duration: float = 10_000.0,
    seeds: Sequence[int] = (0,),
    arbiter_kind: str = "longest_queue",
    arbiter_weights: Optional[Dict[str, float]] = None,
    timeout_threshold: Optional[float] = None,
    warmup: float = 0.0,
) -> List[SimulationResult]:
    """Run one simulation per seed through the mega-batch kernel.

    All seeds share one cell (same topology, capacities, arbiter and
    timeout); one :class:`~repro.sim.megabatch.MegaBatchLane` advances
    every replication per C kernel invocation.  Results are returned in
    seed order and are bitwise identical to running the batched lane
    per seed (``_simulate_seed``).  Cells the kernel cannot replay
    exactly (randomised arbiters, stateful traffic descriptors) take
    exactly that per-seed path as a fallback, counted once per block in
    ``sim.megabatch.fallback.unsupported``; so does every cell when no
    C kernel could be built (or ``REPRO_SIM_CC=0``), counted in
    ``sim.megabatch.fallback.no_kernel``.  The equality is therefore
    universal.  ``duration`` must be finite and positive, ``warmup``
    finite and non-negative.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise SimulationError(
            f"duration must be finite and > 0, got {duration}"
        )
    if not (math.isfinite(warmup) and warmup >= 0):
        raise SimulationError(
            f"warmup must be finite and >= 0, got {warmup}"
        )
    seed_list = [int(s) for s in seeds]
    if not seed_list:
        raise SimulationError("simulate_block needs at least one seed")
    from repro.sim import _mbcc
    from repro.sim.arbiter import check_arbiter_kind
    from repro.sim.megabatch import MegaBatchLane, megabatch_supported

    # A typo'd arbiter is an error, not an unsupported cell.
    check_arbiter_kind(arbiter_kind)

    fallback = None
    if not megabatch_supported(topology, arbiter_kind):
        fallback = "sim.megabatch.fallback.unsupported"
    elif _mbcc.load_kernel() is None:
        fallback = "sim.megabatch.fallback.no_kernel"
    if fallback is not None:
        obs.counter(fallback).inc()
        return [
            _simulate_seed(
                topology,
                capacities,
                duration,
                s,
                arbiter_kind=arbiter_kind,
                arbiter_weights=arbiter_weights,
                timeout_threshold=timeout_threshold,
                warmup=warmup,
            )
            for s in seed_list
        ]
    lane = MegaBatchLane(
        topology,
        capacities,
        seed_list,
        arbiter_kind=arbiter_kind,
        arbiter_weights=arbiter_weights,
        timeout_threshold=timeout_threshold,
    )
    lane.start()
    base_offered = base_lost = base_timeout = base_delivered = None
    if warmup > 0:
        with obs.span("sim.window") as span:
            span.set("backend", "megabatch")
            span.set("phase", "warmup")
            lane.run_until(warmup)
        base_offered = lane.offered.copy()
        base_lost = lane.lost.copy()
        base_timeout = lane.timed_out.copy()
        base_delivered = lane.delivered.copy()
    with obs.span("sim.window") as span:
        span.set("backend", "megabatch")
        span.set("phase", "measure")
        lane.run_until(warmup + duration)
    obs.counter("sim.windows").inc()
    index = {name: i for i, name in enumerate(lane.proc_names)}
    results: List[SimulationResult] = []
    for r in range(lane.R):
        monitor = lane.monitor_for(r)

        def window(counts, baseline):
            return {
                p: int(counts[r, index[p]])
                - (int(baseline[r, index[p]]) if baseline is not None else 0)
                for p in topology.processors
            }

        results.append(
            SimulationResult(
                duration=duration,
                offered=window(lane.offered, base_offered),
                lost=window(lane.lost, base_lost),
                timed_out=window(lane.timed_out, base_timeout),
                delivered=window(lane.delivered, base_delivered),
                # Means are cumulative (warmup included), matching
                # the per-seed lanes' monitor-level means.
                mean_waiting_time=monitor.mean_waiting_time(),
                mean_end_to_end=monitor.mean_end_to_end(),
            )
        )
    return results


@dataclass
class ReplicationSummary:
    """Mean and spread of per-processor losses over replications."""

    results: List[SimulationResult]

    def __post_init__(self) -> None:
        if not self.results:
            raise SimulationError("no replications supplied")

    @property
    def num_replications(self) -> int:
        return len(self.results)

    def mean_loss(self, processor: str) -> float:
        """Average loss count of one processor across replications."""
        return float(
            np.mean([r.lost.get(processor, 0) for r in self.results])
        )

    def mean_total_loss(self) -> float:
        """Average total loss count across replications."""
        return float(np.mean([r.total_lost for r in self.results]))

    def std_total_loss(self) -> float:
        """Sample standard deviation of total losses."""
        values = [r.total_lost for r in self.results]
        if len(values) < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    def mean_loss_by_processor(self, processors: List[str]) -> Dict[str, float]:
        """Mean loss count per processor, in the given order."""
        return {p: self.mean_loss(p) for p in processors}


#: Replication seed schemes accepted by :func:`replication_seeds`.
SEED_SCHEMES = ("legacy", "spawn")


def replication_seeds(
    replications: int,
    base_seed: int = 0,
    scheme: str = "legacy",
) -> List[int]:
    """Derive one simulation seed per replication.

    ``"legacy"`` (default) is the historical ``base_seed + 1000 * r``
    arithmetic progression, kept so all existing fixed-seed outputs are
    unchanged.  It collides as soon as ``replications > 1000`` or when
    two batches use base seeds less than ``1000 * replications`` apart
    (batch ``base_seed=0`` replication 1 is batch ``base_seed=1000``
    replication 0).

    ``"spawn"`` derives seeds through
    :meth:`numpy.random.SeedSequence.spawn`: each replication gets an
    independent child stream whose first 64-bit word becomes the
    simulation seed, making collisions across replications *and* across
    nearby base seeds cryptographically unlikely.
    """
    if replications < 1:
        raise SimulationError(
            f"replications must be >= 1, got {replications}"
        )
    if scheme == "legacy":
        return [base_seed + 1000 * r for r in range(replications)]
    if scheme == "spawn":
        children = np.random.SeedSequence(base_seed).spawn(replications)
        return [
            int(child.generate_state(1, np.uint64)[0]) for child in children
        ]
    raise SimulationError(
        f"unknown seed scheme {scheme!r}; choose from {SEED_SCHEMES}"
    )


def _simulate_block_job(
    job: Tuple[Topology, Dict[str, int], float, List[int], dict]
) -> List[SimulationResult]:
    """Pool worker: one mega-batch block (pure in its arguments)."""
    topology, capacities, duration, seeds, kwargs = job
    return simulate_block(
        topology, capacities, duration=duration, seeds=seeds, **kwargs
    )


#: Replications per mega-batch block on a distributed executor: small
#: enough that a batch splits into blocks for every worker (a cold block
#: leases alone, so each idle worker takes one), large enough to
#: amortise one kernel per block.
MEGABATCH_DIST_BLOCK = 8


def replicate(
    topology: Topology,
    capacities: Dict[str, int],
    replications: int = 10,
    duration: float = 10_000.0,
    base_seed: int = 0,
    jobs: int = 1,
    seed_scheme: str = "legacy",
    executor=None,
    on_result=None,
    **kwargs,
) -> ReplicationSummary:
    """Run ``replications`` independent simulations (the paper's 10 iterations).

    The seed list is partitioned into contiguous blocks, one
    :func:`simulate_block` cell each.  ``jobs`` fans the blocks over a
    process pool via :mod:`repro.exec.pool` — or over a distributed
    fleet when ``executor`` (e.g. :class:`repro.dist.DistExecutor`) is
    given.  Seeds are derived up front, the per-replication streams are
    independent, and results are merged in replication order, so any
    ``jobs``/executor choice produces a bitwise-identical
    :class:`ReplicationSummary`.  ``on_result(index, result)`` fires in
    replication order as runs complete.  ``seed_scheme`` selects how
    per-replication seeds are derived (see :func:`replication_seeds`).
    Remaining keyword arguments pass through to :func:`simulate_block`.
    """
    seeds = replication_seeds(replications, base_seed, seed_scheme)
    if executor is not None:
        nblocks = -(-replications // MEGABATCH_DIST_BLOCK)
    else:
        nblocks = min(resolve_jobs(jobs), replications)
    spans = partition_blocks(replications, nblocks)
    block_jobs = [
        (topology, capacities, duration, seeds[lo:hi], kwargs)
        for lo, hi in spans
    ]
    block_on_result = None
    if on_result is not None:
        starts = [lo for lo, _ in spans]

        def block_on_result(block_index, block):
            # Explode block results into per-replication progress
            # events; blocks complete in submission order, so the
            # global indices fire in replication order.
            for offset, result in enumerate(block):
                on_result(starts[block_index] + offset, result)

    blocks = parallel_map(
        _simulate_block_job,
        block_jobs,
        jobs=jobs,
        executor=executor,
        on_result=block_on_result,
    )
    return ReplicationSummary([result for block in blocks for result in block])
