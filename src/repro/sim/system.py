"""Assembling a runnable simulator from a topology and an allocation.

:class:`CommunicationSystem` wires together flow sources, finite buffers,
cluster buses and the monitor.  Buffer capacities come from an allocation
mapping ``client name -> slots``; client names are processor names and
canonical bridge-entry names
(:func:`repro.arch.topology.client_name_for_bridge`), the same
vocabulary :mod:`repro.core.splitting` uses — so the CTMDP sizing output
plugs straight in.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.topology import (
    Flow,
    Topology,
    bridge_entry_bus,
    client_name_for_bridge,
)
from repro.errors import SimulationError
from repro.sim.arbiter import make_arbiter
from repro.sim.bridge import build_hops
from repro.sim.buffer import FiniteBuffer
from repro.sim.bus import ClusterBus
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.sim.packet import Hop, Packet
from repro.sim.processor import FlowSource


class Wiring(NamedTuple):
    """The structure of one simulation cell, shared by every lane.

    ``buffers[b]`` lists cluster ``b``'s ``(client name, slots)`` in
    arbiter order: processors (sorted), then bridge entries (sorted by
    canonical name).  ``flows`` are sorted by name and ``hops[s]`` is
    flow ``s``'s itinerary (:func:`~repro.sim.bridge.build_hops`).
    """

    clusters: List[frozenset]
    buffers: List[List[Tuple[str, int]]]
    flows: List[Flow]
    hops: List[Tuple[Hop, ...]]


def wire(
    topology: Topology,
    capacities: Dict[str, int],
    timeout_threshold: Optional[float] = None,
) -> Wiring:
    """Validate one simulation cell and lay out its buffers and flows.

    :class:`CommunicationSystem` and the mega-batch lane both build
    from this, so they agree on the wiring and on every error: a
    processor missing from ``capacities``, a negative capacity, a
    non-positive ``timeout_threshold``, and a cluster with no buffers
    or with two of one name raise :class:`SimulationError`.  Bridge
    entries missing from ``capacities`` get zero slots.
    """
    topology.validate()
    missing = [p for p in topology.processors if p not in capacities]
    if missing:
        raise SimulationError(
            f"allocation missing processor buffers: {sorted(missing)}"
        )
    if timeout_threshold is not None and timeout_threshold <= 0:
        raise SimulationError(
            f"timeout threshold must be > 0, got {timeout_threshold}"
        )
    clusters = topology.bus_clusters()
    buffers: List[List[Tuple[str, int]]] = []
    for i, cluster in enumerate(clusters):
        clients = [
            (proc.name, int(capacities[proc.name]))
            for proc in topology.cluster_processors(cluster)
        ]
        entries = sorted(
            client_name_for_bridge(
                bridge.name, bridge_entry_bus(bridge, cluster)
            )
            for bridge in topology.cluster_bridges(cluster)
        )
        clients += [(name, int(capacities.get(name, 0))) for name in entries]
        for name, slots in clients:
            if slots < 0:
                raise SimulationError(
                    f"buffer {name!r}: capacity must be >= 0, got {slots}"
                )
        if not clients:
            raise SimulationError(
                f"cluster 'cluster{i}' has no client buffers"
            )
        if len({name for name, _ in clients}) != len(clients):
            raise SimulationError(
                f"cluster 'cluster{i}' has duplicate buffer names"
            )
        buffers.append(clients)
    cluster_index = {cluster: i for i, cluster in enumerate(clusters)}
    names = sorted(topology.flows)
    return Wiring(
        clusters,
        buffers,
        [topology.flows[name] for name in names],
        [build_hops(topology, name, cluster_index) for name in names],
    )


class CommunicationSystem:
    """A fully wired simulator instance.

    Parameters
    ----------
    topology:
        Validated architecture description.
    capacities:
        ``client name -> buffer slots``.  Every processor must be present;
        bridge-entry buffers missing from the map default to zero slots
        (no buffer inserted => all crossing traffic is lost), which makes
        forgetting bridge insertion loudly visible in results.
    arbiter_kind:
        Name understood by :func:`repro.sim.arbiter.make_arbiter`; each
        cluster gets its own instance.
    arbiter_weights:
        Only for ``weighted_random``: client-name weights.
    timeout_threshold:
        Enables the paper's timeout-based dropping policy on every
        cluster.
    seed:
        Master seed; flow sources and cluster buses draw independent
        substreams.

    The cell is validated and laid out by :func:`wire`.
    """

    def __init__(
        self,
        topology: Topology,
        capacities: Dict[str, int],
        arbiter_kind: str = "longest_queue",
        arbiter_weights: Optional[Dict[str, float]] = None,
        timeout_threshold: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        wiring = wire(topology, capacities, timeout_threshold)
        self.topology = topology
        self.simulator = Simulator()
        self.monitor = Monitor()
        self.clusters = wiring.clusters

        seed_seq = np.random.SeedSequence(seed)
        children = seed_seq.spawn(len(self.clusters) + len(wiring.flows))
        bus_streams = children[: len(self.clusters)]
        flow_streams = children[len(self.clusters):]

        self.buses: List[ClusterBus] = []
        self._buffers: Dict[str, FiniteBuffer] = {}
        for i, clients in enumerate(wiring.buffers):
            buffers = [FiniteBuffer(name, slots) for name, slots in clients]
            self._buffers.update((buf.name, buf) for buf in buffers)
            self.buses.append(
                ClusterBus(
                    name=f"cluster{i}",
                    buffers=buffers,
                    arbiter=make_arbiter(
                        arbiter_kind, weights=arbiter_weights or {}
                    ),
                    simulator=self.simulator,
                    monitor=self.monitor,
                    rng=np.random.default_rng(bus_streams[i]),
                    on_serviced=self._route_onward,
                    timeout_threshold=timeout_threshold,
                )
            )

        self.sources: List[FlowSource] = []
        for stream, flow, hops in zip(flow_streams, wiring.flows, wiring.hops):
            self.sources.append(
                FlowSource(
                    flow=flow,
                    hops=hops,
                    simulator=self.simulator,
                    rng=np.random.default_rng(stream),
                    deliver=self._inject,
                )
            )

    # ------------------------------------------------------------------

    def _inject(self, packet: Packet) -> None:
        """A fresh packet enters its source buffer."""
        self.monitor.record_offered(packet)
        self.buses[packet.current_hop.cluster_index].enqueue(packet)

    def _route_onward(self, packet: Packet) -> None:
        """A serviced packet either advances a hop or is delivered."""
        if packet.is_last_hop:
            self.monitor.record_delivery(packet, self.simulator.now)
            return
        packet.advance()
        self.buses[packet.current_hop.cluster_index].enqueue(packet)

    # ------------------------------------------------------------------

    def run(self, duration: float) -> Monitor:
        """Start all sources and run for ``duration`` time units."""
        if duration <= 0:
            raise SimulationError(f"duration must be > 0, got {duration}")
        for source in self.sources:
            source.start()
        self.simulator.run_until(duration)
        return self.monitor

    def buffer(self, name: str) -> FiniteBuffer:
        """Access a buffer by client name (stats inspection)."""
        try:
            return self._buffers[name]
        except KeyError:
            raise SimulationError(f"unknown buffer {name!r}") from None
