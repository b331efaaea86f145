"""Discrete-event simulator of the SoC communication sub-system.

A from-scratch continuous-time simulator matching the paper's evaluation
loop: processors emit Poisson request streams into finite buffers, each
bus cluster's arbiter grants one buffer at a time, bridge crossings hop
through inserted bridge buffers, and packets that find a full buffer — or
that exceed the timeout threshold under the timeout policy — are lost.

Public surface:

* :func:`repro.sim.runner.simulate` — run one topology + allocation
  (one seed of :func:`~repro.sim.runner.simulate_block`).
* :func:`repro.sim.runner.simulate_block` — one mega-batch kernel cell:
  many seeds of the same configuration in a single array program, with
  a counted per-seed fallback to the batched lane for cells the kernel
  cannot replay and hosts without a C kernel.
* :func:`repro.sim.runner.replicate` — n seeds, aggregated statistics.
* :class:`repro.sim.runner.SimulationResult` — per-processor losses etc.
* Arbiters in :mod:`repro.sim.arbiter`.
* :class:`repro.sim.batched.BatchedSystem` — the array-native per-seed
  lane (the counted fallback), for callers that drive windows manually.
* :class:`repro.sim.megabatch.MegaBatchLane` — the replication-stacked
  lane, for callers that drive windows manually.
"""

from repro.sim.arbiter import (
    Arbiter,
    FixedPriorityArbiter,
    LongestQueueArbiter,
    RoundRobinArbiter,
    WeightedRandomArbiter,
    make_arbiter,
)
from repro.sim.batched import BatchedSystem
from repro.sim.engine import BatchedSimulator, Simulator
from repro.sim.megabatch import MegaBatchLane, megabatch_supported
from repro.sim.runner import (
    ReplicationSummary,
    SimulationResult,
    replicate,
    simulate,
    simulate_block,
)
from repro.sim.system import CommunicationSystem

__all__ = [
    "Arbiter",
    "BatchedSimulator",
    "BatchedSystem",
    "CommunicationSystem",
    "FixedPriorityArbiter",
    "LongestQueueArbiter",
    "MegaBatchLane",
    "ReplicationSummary",
    "RoundRobinArbiter",
    "SimulationResult",
    "Simulator",
    "WeightedRandomArbiter",
    "make_arbiter",
    "megabatch_supported",
    "replicate",
    "simulate",
    "simulate_block",
]
