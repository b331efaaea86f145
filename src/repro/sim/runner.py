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
    exactly (randomised arbiters, traffic it does not sample) take
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
    counters = (lane.offered, lane.lost, lane.timed_out, lane.delivered)
    baselines = None
    if warmup > 0:
        with obs.span("sim.window") as span:
            span.set("backend", "megabatch")
            span.set("phase", "warmup")
            lane.run_until(warmup)
        baselines = [counts.copy() for counts in counters]
    with obs.span("sim.window") as span:
        span.set("backend", "megabatch")
        span.set("phase", "measure")
        lane.run_until(warmup + duration)
    obs.counter("sim.windows").inc()
    # Every result straight from the lane's arrays: one tolist() per
    # counter, processors in topology order as on the per-seed lanes.
    names = list(topology.processors)
    index = {name: i for i, name in enumerate(lane.proc_names)}
    columns = [index[name] for name in names]
    if baselines is not None:
        counters = [
            counts - base for counts, base in zip(counters, baselines)
        ]
    offered, lost, timed_out, delivered = (
        counts[:, columns].tolist() for counts in counters
    )
    # Means are cumulative (warmup included), matching the per-seed
    # lanes' monitor-level means.
    wait_sum = lane.wait_sum.tolist()
    wait_cnt = lane.wait_cnt.tolist()
    e2e_sum = lane.e2e_sum.tolist()
    delivered_total = lane.delivered.sum(axis=1).tolist()
    return [
        SimulationResult(
            duration=duration,
            offered=dict(zip(names, offered[r])),
            lost=dict(zip(names, lost[r])),
            timed_out=dict(zip(names, timed_out[r])),
            delivered=dict(zip(names, delivered[r])),
            mean_waiting_time=(
                wait_sum[r] / wait_cnt[r] if wait_cnt[r] else 0.0
            ),
            mean_end_to_end=(
                e2e_sum[r] / delivered_total[r] if delivered_total[r] else 0.0
            ),
        )
        for r in range(lane.R)
    ]


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


def replication_seeds(replications: int, base_seed: int = 0) -> List[int]:
    """Derive one simulation seed per replication: ``base_seed + 1000 * r``.

    The seeds strictly increase with ``r``, so one batch never repeats
    a seed.  Two batches share seeds exactly when their base seeds
    differ by a nonzero multiple of 1000 that is below ``1000 *
    replications``: replication 1 of the batch with ``base_seed=0`` is
    replication 0 of the batch with ``base_seed=1000``.
    """
    if replications < 1:
        raise SimulationError(
            f"replications must be >= 1, got {replications}"
        )
    return [base_seed + 1000 * r for r in range(replications)]


def _simulate_block_job(
    job: Tuple[Topology, Dict[str, int], float, List[int], dict]
) -> List[SimulationResult]:
    """Pool worker: one mega-batch block (pure in its arguments)."""
    topology, capacities, duration, seeds, kwargs = job
    return simulate_block(
        topology, capacities, duration=duration, seeds=seeds, **kwargs
    )


def replicate(
    topology: Topology,
    capacities: Dict[str, int],
    replications: int = 10,
    duration: float = 10_000.0,
    base_seed: int = 0,
    jobs: int = 1,
    on_result=None,
    **kwargs,
) -> ReplicationSummary:
    """Run ``replications`` independent simulations (the paper's 10 iterations).

    The seed list is partitioned into contiguous blocks, one
    :func:`simulate_block` cell each.  ``jobs`` fans the blocks over a
    process pool via :mod:`repro.exec.pool`.  Seeds are derived up
    front, the per-replication streams are independent, and results
    are merged in replication order, so any ``jobs`` value produces a
    bitwise-identical :class:`ReplicationSummary`.
    ``on_result(index, result)`` fires in replication order as runs
    complete.  Seeds come from :func:`replication_seeds`.  Remaining
    keyword arguments pass through to :func:`simulate_block`.
    """
    seeds = replication_seeds(replications, base_seed)
    spans = partition_blocks(replications, resolve_jobs(jobs))
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
        on_result=block_on_result,
    )
    return ReplicationSummary([result for block in blocks for result in block])
