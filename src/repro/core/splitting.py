"""Bridge splitting: decomposing a bridged architecture into linear subsystems.

Section 2 of the paper: when buses talk through bridges, the joint CTMDP
formulation acquires quadratic terms ("the equality constraints and the
cost function have quadratic terms ... one for each point in the bus
topology in which buses are connected").  The proposed solution — the
paper's contribution — is to **insert buffers at the bridges and split
the architecture into subsystems separated by those buffers**, each of
which is a *linear* CTMDP.

This module performs that split.  Each bus cluster of the topology
becomes a :class:`Subsystem` whose clients are

* its processors (arrival rate = total rate of flows they source), and
* one **bridge-entry buffer** per incident bridge direction that at least
  one flow uses (arrival rate = the carried rate of the flows entering
  the cluster over that bridge).

Carried rates depend on upstream blocking, which depends on the solution
— the fixed point resolved by :mod:`repro.core.sizing`.  The functions
here compute offered/carried rates for a given blocking estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.arch.topology import (
    Topology,
    bridge_entry_bus,
    client_name_for_bridge,
)
from repro.core.bus_model import BusClient
from repro.errors import TopologyError


@dataclass(frozen=True)
class FlowHop:
    """One buffer a flow passes through: ``(subsystem index, client name)``."""

    subsystem: int
    client: str


@dataclass
class Subsystem:
    """One linear subsystem produced by the split (paper Figure 2).

    Attributes
    ----------
    index:
        Position in the deterministic subsystem ordering.
    cluster:
        The buses this subsystem arbitrates.
    clients:
        Buffer-owning clients (processors then bridge entries), with the
        arrival rates of the *current* fixed-point iterate.
    processor_names / bridge_client_names:
        Partition of ``clients`` by kind.
    """

    index: int
    cluster: frozenset
    clients: List[BusClient]
    processor_names: List[str]
    bridge_client_names: List[str]

    def client(self, name: str) -> BusClient:
        """Look up a client by name."""
        for c in self.clients:
            if c.name == name:
                return c
        raise TopologyError(
            f"subsystem {self.index} has no client {name!r}"
        )

    def with_rates(self, rates: Dict[str, float]) -> "Subsystem":
        """Copy with updated arrival rates (bridge fixed-point step)."""
        new_clients = [
            c.with_arrival_rate(rates.get(c.name, c.arrival_rate))
            for c in self.clients
        ]
        return Subsystem(
            index=self.index,
            cluster=self.cluster,
            clients=new_clients,
            processor_names=list(self.processor_names),
            bridge_client_names=list(self.bridge_client_names),
        )


@dataclass
class SplitSystem:
    """The full split: subsystems plus per-flow hop itineraries."""

    topology: Topology
    subsystems: List[Subsystem]
    flow_hops: Dict[str, Tuple[FlowHop, ...]]

    def all_client_names(self) -> List[str]:
        """Every buffer client across all subsystems (unique names)."""
        names: List[str] = []
        for sub in self.subsystems:
            names.extend(c.name for c in sub.clients)
        return names

    def subsystem_of_client(self, name: str) -> Subsystem:
        """The subsystem owning a client buffer."""
        for sub in self.subsystems:
            if any(c.name == name for c in sub.clients):
                return sub
        raise TopologyError(f"no subsystem owns client {name!r}")


def split(topology: Topology, capacity_cap: int) -> SplitSystem:
    """Split a topology into bridge-separated linear subsystems.

    Parameters
    ----------
    topology:
        Validated architecture.
    capacity_cap:
        Upper bound on any single buffer's size; defines the CTMDP state
        spaces (the optimiser may allocate anything from 1 to the cap).
        Bridge-entry buffers take their bridge's ``loss_weight``.

    Returns
    -------
    SplitSystem
        Subsystems with *offered* (un-thinned) bridge rates; the sizing
        fixed point refines them via :func:`bridge_arrival_rates`.
    """
    topology.validate()
    if capacity_cap < 1:
        raise TopologyError(
            f"capacity cap must be >= 1, got {capacity_cap}"
        )
    clusters = topology.bus_clusters()
    cluster_index = {c: i for i, c in enumerate(clusters)}

    # Flow itineraries in client-name space.
    flow_hops: Dict[str, Tuple[FlowHop, ...]] = {}
    for flow_name, flow in topology.flows.items():
        route = topology.route(flow_name)
        hops = [
            FlowHop(cluster_index[route.clusters[0]], flow.source)
        ]
        for bridge_name, entered in zip(route.bridges, route.clusters[1:]):
            bridge = topology.bridges[bridge_name]
            entry = bridge_entry_bus(bridge, entered)
            hops.append(
                FlowHop(
                    cluster_index[entered],
                    client_name_for_bridge(bridge_name, entry),
                )
            )
        flow_hops[flow_name] = tuple(hops)

    # Offered rate per client (un-thinned: every flow contributes its full
    # rate at every hop).
    offered: Dict[str, float] = {}
    for flow_name, hops in flow_hops.items():
        rate = topology.flows[flow_name].rate
        for hop in hops:
            offered[hop.client] = offered.get(hop.client, 0.0) + rate

    subsystems: List[Subsystem] = []
    for i, cluster in enumerate(clusters):
        clients: List[BusClient] = []
        processor_names: List[str] = []
        bridge_client_names: List[str] = []
        for proc in topology.cluster_processors(cluster):
            rate = offered.get(proc.name, 0.0)
            clients.append(
                BusClient(
                    name=proc.name,
                    arrival_rate=rate,
                    service_rate=proc.service_rate,
                    capacity=capacity_cap,
                    loss_weight=proc.loss_weight,
                )
            )
            processor_names.append(proc.name)
        for bridge in topology.cluster_bridges(cluster):
            entry = bridge_entry_bus(bridge, cluster)
            name = client_name_for_bridge(bridge.name, entry)
            rate = offered.get(name, 0.0)
            if rate <= 0.0:
                # No flow enters this cluster over this bridge; no buffer
                # needs to be inserted on this side.
                continue
            clients.append(
                BusClient(
                    name=name,
                    arrival_rate=rate,
                    service_rate=bridge.service_rate,
                    capacity=capacity_cap,
                    loss_weight=bridge.loss_weight,
                )
            )
            bridge_client_names.append(name)
        subsystems.append(
            Subsystem(
                index=i,
                cluster=cluster,
                clients=clients,
                processor_names=processor_names,
                bridge_client_names=bridge_client_names,
            )
        )
    return SplitSystem(
        topology=topology, subsystems=subsystems, flow_hops=flow_hops
    )


def bridge_arrival_rates(
    split_system: SplitSystem,
    blocking: Dict[str, float],
) -> Dict[str, float]:
    """Carried arrival rates at every bridge-entry buffer.

    Thin each flow hop by hop with the supplied per-client blocking
    probabilities (the reduced-load independence approximation); a
    bridge-entry buffer receives the sum of the surviving rates of the
    flows crossing it.

    Parameters
    ----------
    split_system:
        Output of :func:`split`.
    blocking:
        ``client name -> P(buffer full)`` from the latest LP solve;
        missing clients are treated as lossless.
    """
    rates: Dict[str, float] = {
        name: 0.0
        for sub in split_system.subsystems
        for name in sub.bridge_client_names
    }
    for flow_name, hops in split_system.flow_hops.items():
        rate = split_system.topology.flows[flow_name].rate
        for j, hop in enumerate(hops):
            if j > 0:
                rates[hop.client] = rates.get(hop.client, 0.0) + rate
            b = blocking.get(hop.client, 0.0)
            b = min(max(b, 0.0), 1.0)
            rate *= 1.0 - b
    return rates


def quadratic_coupling_count(topology: Topology) -> int:
    """Number of bridge couplings that would appear as quadratic terms.

    "The number of quadratic terms depend on how many points in the bus
    topology are there in which buses are connected to each other" —
    one per *used* bridge direction.  The ablation bench reports this as
    the size of the nonlinearity the split removes.
    """
    capacity_probe = 1
    system = split(topology, capacity_probe)
    return sum(
        len(sub.bridge_client_names) for sub in system.subsystems
    )
