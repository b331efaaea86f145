"""Bus-cluster servers: arbitration, service, timeout dropping.

One :class:`ClusterBus` models the arbiter of one bus cluster (a set of
buses rigidly linked, sharing a single logical arbiter — exactly the unit
the split method produces).  The bus serves one packet at a time; service
duration is exponential with the *client's* rate (processors and bridges
may have different transaction lengths).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.sim.arbiter import Arbiter
from repro.sim.buffer import FiniteBuffer
from repro.sim.engine import Simulator
from repro.sim.fastpath import ExponentialPool
from repro.sim.monitor import Monitor
from repro.sim.packet import Packet


class ClusterBus:
    """The shared server of one bus cluster.

    Parameters
    ----------
    name:
        Cluster label (for diagnostics).
    buffers:
        Client buffers in deterministic order (processors first, then
        bridge entries — the order fixes fixed-priority semantics), as
        :func:`repro.sim.system.wire` lays them out and validates them:
        non-empty, with distinct names.
    arbiter:
        Arbitration policy instance (not shared between clusters).
    simulator / monitor / rng:
        Shared infrastructure.
    on_serviced:
        Callback invoked with each packet whose transaction completed;
        the system routes it onward (next hop or delivery).
    timeout_threshold:
        If not None (then > 0, as ``wire`` checks), a packet whose
        waiting time at grant instant exceeds the threshold is dropped
        (counted via :meth:`Monitor.record_timeout`) and the arbiter
        picks again — the paper's timeout-based policy.

    Service durations are drawn through a chunked
    :class:`~repro.sim.fastpath.ExponentialPool` whenever the arbiter
    never touches the generator (all deterministic arbiters), which
    consumes the bit stream identically to per-call draws; randomised
    arbiters share the generator, so they fall back to scalar draws to
    preserve the interleaving.
    """

    __slots__ = (
        "name",
        "buffers",
        "buffer_by_name",
        "arbiter",
        "simulator",
        "monitor",
        "rng",
        "on_serviced",
        "timeout_threshold",
        "busy",
        "_service_pool",
    )

    def __init__(
        self,
        name: str,
        buffers: List[FiniteBuffer],
        arbiter: Arbiter,
        simulator: Simulator,
        monitor: Monitor,
        rng: np.random.Generator,
        on_serviced: Callable[[Packet], None],
        timeout_threshold: Optional[float] = None,
    ) -> None:
        self.name = name
        self.buffers = buffers
        self.buffer_by_name = {b.name: b for b in buffers}
        self.arbiter = arbiter
        self.simulator = simulator
        self.monitor = monitor
        self.rng = rng
        self.on_serviced = on_serviced
        self.timeout_threshold = timeout_threshold
        self.busy = False
        self._service_pool = (
            None if arbiter.uses_rng else ExponentialPool(rng)
        )

    # ------------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to its hop buffer; kick the server if idle.

        Returns False (after recording the loss) when the buffer is full.
        """
        buffer = self.buffer_by_name.get(packet.current_hop.client)
        if buffer is None:
            raise SimulationError(
                f"cluster {self.name!r} has no buffer "
                f"{packet.current_hop.client!r}"
            )
        accepted = buffer.offer(packet, self.simulator.now)
        if not accepted:
            self.monitor.record_loss(packet)
            return False
        if not self.busy:
            self._grant_next()
        return True

    # ------------------------------------------------------------------

    def _grant_next(self) -> None:
        """Arbitrate and start the next transaction, if any work exists.

        The granted packet *stays in its buffer* (occupying its slot)
        until the transaction completes — the same convention as the
        CTMDP occupancy model, where a request holds buffer space while
        the bus transfers it.
        """
        if self.busy:
            return
        while True:
            index = self.arbiter.grant(self.buffers, self.simulator.now, self.rng)
            if index is None:
                return
            buffer = self.buffers[index]
            packet = buffer.peek()
            if (
                self.timeout_threshold is not None
                and self.simulator.now - packet.enqueued_at
                > self.timeout_threshold
            ):
                buffer.pop(self.simulator.now)
                self.monitor.record_timeout(packet)
                continue  # pick another request; bus stays free this instant
            self.monitor.record_service_start(packet, self.simulator.now)
            self.busy = True
            scale = 1.0 / packet.current_hop.service_rate
            if self._service_pool is not None:
                duration = self._service_pool.next() * scale
            else:
                duration = self.rng.exponential(scale)
            self.simulator.schedule(duration, self._complete, buffer, packet)
            return

    def _complete(self, buffer: FiniteBuffer, packet: Packet) -> None:
        """A transaction finished: release the slot, route, re-arbitrate."""
        head = buffer.pop(self.simulator.now)
        if head is not packet:  # pragma: no cover - defensive
            raise SimulationError(
                f"buffer {buffer.name!r} head changed during service"
            )
        self.busy = False
        self.on_serviced(packet)
        self._grant_next()


class ClusterState:
    """Array extraction of one :class:`ClusterBus` for the batched lane.

    Bundles, in arbiter order, the cluster's ring ids (indices into the
    lane's global :class:`~repro.sim.buffer.PacketRing` registry), the
    mutable occupancy-count list the vectorised grant loop reads, and
    the client names — plus the *shared* arbiter/rng/service-pool
    objects of the source bus.  Sharing (not copying) those objects is
    deliberate: their internal state (a round-robin arbiter's cursor,
    the pool's chunk position) carries over exactly, which is what the
    bitwise determinism contract of :mod:`repro.sim.batched` requires.
    """

    __slots__ = (
        "name",
        "ring_ids",
        "counts",
        "names",
        "arbiter",
        "rng",
        "pool",
        "timeout_threshold",
    )

    def __init__(self, bus: ClusterBus, ring_ids: List[int]) -> None:
        if len(ring_ids) != len(bus.buffers):
            raise SimulationError(
                f"cluster {bus.name!r}: {len(ring_ids)} ring ids for "
                f"{len(bus.buffers)} buffers"
            )
        self.name = bus.name
        self.ring_ids = list(ring_ids)
        self.counts = [0] * len(bus.buffers)
        self.names = [b.name for b in bus.buffers]
        self.arbiter = bus.arbiter
        self.rng = bus.rng
        self.pool = bus._service_pool
        self.timeout_threshold = bus.timeout_threshold
