"""Intermediate representation of an SoC communication sub-system.

The IR mirrors the paper's Figure 1: **processors** attach to **buses**;
buses may be rigidly joined by :class:`BusLink` (they then form one *bus
cluster* arbitrated together, like buses a–e in the figure) or coupled
through a :class:`Bridge` (the case that makes the naive CTMDP quadratic
and that buffer insertion resolves).  **Flows** describe who talks to
whom and at what rate.

The topology exposes the two queries the split method needs:

* :meth:`Topology.bus_clusters` — connected components of the bus graph
  after *cutting every bridge*; each cluster becomes one linear subsystem.
* :meth:`Topology.route` — the sequence of clusters and bridges a flow
  traverses from its source processor to its destination.

Both are breadth-first searches, and both are memoised: the derived
bus structure (clusters, bus→cluster map, bridges between clusters)
once per structural state, and each flow's route once per structure
and endpoint buses.  The memo keys are snapshots of the structure
itself, so neither an ``add_*`` call nor a direct edit of
``buses``/``links``/``bridges``/``processors``/``flows`` can ever be
served a stale answer; the memos stay out of pickles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.traffic import PoissonTraffic, TrafficDescriptor
from repro.errors import TopologyError


@dataclass(frozen=True)
class Bus:
    """A shared communication medium with a single arbiter."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("bus name must be non-empty")


@dataclass(frozen=True)
class Processor:
    """An IP core attached to exactly one bus.

    Parameters
    ----------
    name:
        Unique identifier.
    bus:
        Name of the bus the processor's buffer feeds.
    service_rate:
        Exponential rate at which the bus drains one of this processor's
        requests once granted (bus transactions per unit time).
    loss_weight:
        Importance of this processor's losses in the sizing objective.
    """

    name: str
    bus: str
    service_rate: float
    loss_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("processor name must be non-empty")
        if self.service_rate <= 0:
            raise TopologyError(
                f"processor {self.name!r}: service rate must be > 0"
            )
        if self.loss_weight < 0:
            raise TopologyError(
                f"processor {self.name!r}: loss weight must be >= 0"
            )


@dataclass(frozen=True)
class Bridge:
    """A bidirectional bridge between two buses.

    Crossing a bridge costs one extra bus transaction on the far side;
    the split method inserts a buffer at each *entry* of the bridge.
    ``service_rate`` is the rate at which the destination bus drains
    bridge-buffer requests.
    """

    name: str
    bus_a: str
    bus_b: str
    service_rate: float
    loss_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("bridge name must be non-empty")
        if self.bus_a == self.bus_b:
            raise TopologyError(
                f"bridge {self.name!r} must join two distinct buses"
            )
        if self.service_rate <= 0:
            raise TopologyError(
                f"bridge {self.name!r}: service rate must be > 0"
            )


def client_name_for_bridge(bridge_name: str, entry_bus: str) -> str:
    """Canonical name of a bridge's entry buffer on one side.

    A bridge owns one entry buffer per direction: a packet crossing
    into cluster B waits in ``"<bridge>@<entry_bus>"``, where
    ``entry_bus`` is the bridge endpoint inside cluster B.  The sizing
    pipeline and the simulator both name buffers this way, so a
    :class:`~repro.core.sizing.BufferAllocation` maps directly onto
    simulator buffers.
    """
    return f"{bridge_name}@{entry_bus}"


def bridge_entry_bus(bridge: Bridge, entry_cluster: frozenset) -> str:
    """The bridge endpoint bus that lies inside ``entry_cluster``."""
    if bridge.bus_a in entry_cluster:
        return bridge.bus_a
    if bridge.bus_b in entry_cluster:
        return bridge.bus_b
    raise TopologyError(
        f"bridge {bridge.name!r} has no endpoint in cluster "
        f"{sorted(entry_cluster)}"
    )


@dataclass(frozen=True)
class BusLink:
    """A rigid (buffer-less) join between two buses of the same cluster."""

    bus_a: str
    bus_b: str

    def __post_init__(self) -> None:
        if self.bus_a == self.bus_b:
            raise TopologyError("bus link must join two distinct buses")


@dataclass(frozen=True)
class Flow:
    """A unidirectional traffic flow between two processors."""

    name: str
    source: str
    destination: str
    traffic: TrafficDescriptor

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("flow name must be non-empty")
        if self.source == self.destination:
            raise TopologyError(
                f"flow {self.name!r}: source equals destination"
            )

    @property
    def rate(self) -> float:
        """Mean request rate of the flow."""
        return self.traffic.mean_rate


@dataclass(frozen=True)
class Route:
    """The path a flow takes: clusters visited and bridges crossed.

    ``clusters[i]`` is traversed before ``bridges[i]``, which leads into
    ``clusters[i + 1]``; hence ``len(clusters) == len(bridges) + 1``.
    """

    clusters: Tuple[frozenset, ...]
    bridges: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.clusters) != len(self.bridges) + 1:
            raise TopologyError("malformed route")


class Topology:
    """A complete communication sub-system description."""

    def __init__(self, name: str = "soc") -> None:
        if not name:
            raise TopologyError("topology name must be non-empty")
        self.name = name
        self.buses: Dict[str, Bus] = {}
        self.processors: Dict[str, Processor] = {}
        self.bridges: Dict[str, Bridge] = {}
        self.links: List[BusLink] = []
        self.flows: Dict[str, Flow] = {}
        self._memo: Optional[_Derived] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_bus(self, name: str) -> Bus:
        """Register a bus."""
        if name in self.buses:
            raise TopologyError(f"duplicate bus {name!r}")
        bus = Bus(name)
        self.buses[name] = bus
        return bus

    def add_processor(
        self,
        name: str,
        bus: str,
        service_rate: float,
        loss_weight: float = 1.0,
    ) -> Processor:
        """Attach a processor to an existing bus."""
        if name in self.processors:
            raise TopologyError(f"duplicate processor {name!r}")
        if bus not in self.buses:
            raise TopologyError(
                f"processor {name!r} references unknown bus {bus!r}"
            )
        proc = Processor(name, bus, service_rate, loss_weight)
        self.processors[name] = proc
        return proc

    def add_bridge(
        self,
        name: str,
        bus_a: str,
        bus_b: str,
        service_rate: float,
        loss_weight: float = 1.0,
    ) -> Bridge:
        """Join two existing buses through a bridge."""
        if name in self.bridges:
            raise TopologyError(f"duplicate bridge {name!r}")
        for bus in (bus_a, bus_b):
            if bus not in self.buses:
                raise TopologyError(
                    f"bridge {name!r} references unknown bus {bus!r}"
                )
        bridge = Bridge(name, bus_a, bus_b, service_rate, loss_weight)
        self.bridges[name] = bridge
        return bridge

    def add_link(self, bus_a: str, bus_b: str) -> BusLink:
        """Rigidly join two buses into the same cluster."""
        for bus in (bus_a, bus_b):
            if bus not in self.buses:
                raise TopologyError(
                    f"bus link references unknown bus {bus!r}"
                )
        link = BusLink(bus_a, bus_b)
        self.links.append(link)
        return link

    def add_flow(
        self,
        name: str,
        source: str,
        destination: str,
        traffic: TrafficDescriptor,
    ) -> Flow:
        """Declare a traffic flow between two existing processors."""
        if name in self.flows:
            raise TopologyError(f"duplicate flow {name!r}")
        for proc in (source, destination):
            if proc not in self.processors:
                raise TopologyError(
                    f"flow {name!r} references unknown processor {proc!r}"
                )
        flow = Flow(name, source, destination, traffic)
        self.flows[name] = flow
        return flow

    def add_poisson_flow(
        self, name: str, source: str, destination: str, rate: float
    ) -> Flow:
        """Shorthand for the common Poisson flow."""
        return self.add_flow(name, source, destination, PoissonTraffic(rate))

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------

    def _derived(self) -> "_Derived":
        """The derived bus structure of the current structural state.

        Keyed by a snapshot of everything it depends on — bus names,
        links and bridges — so any change to those (through ``add_*`` or
        a direct edit) rebuilds it, routes included.
        """
        key = (
            tuple(self.buses),
            tuple(self.links),
            tuple(self.bridges.values()),
        )
        memo = self._memo
        if memo is None or memo.key != key:
            memo = self._memo = _Derived(
                key, _link_components(self.buses, self.links)
            )
        return memo

    def bus_clusters(self) -> List[frozenset]:
        """Bus clusters: components after cutting every bridge.

        Each cluster is one linear subsystem of the split method;
        deterministic order (by smallest bus name) for reproducibility.
        Every call returns a fresh list.
        """
        return list(self._derived().clusters)

    def cluster_of_bus(self, bus: str) -> frozenset:
        """The cluster containing a bus."""
        if bus not in self.buses:
            raise TopologyError(f"unknown bus {bus!r}")
        return self._derived().cluster_by_bus[bus]

    def cluster_processors(self, cluster: frozenset) -> List[Processor]:
        """Processors attached to any bus of a cluster, sorted by name."""
        procs = [
            p for p in self.processors.values() if p.bus in cluster
        ]
        return sorted(procs, key=lambda p: p.name)

    def cluster_bridges(self, cluster: frozenset) -> List[Bridge]:
        """Bridges with at least one endpoint in the cluster, sorted."""
        bridges = [
            b
            for b in self.bridges.values()
            if b.bus_a in cluster or b.bus_b in cluster
        ]
        return sorted(bridges, key=lambda b: b.name)

    def route(self, flow_name: str) -> Route:
        """Route of a flow: the clusters visited and bridges crossed.

        Shortest path on the *cluster graph* whose edges are bridges.
        When several shortest paths exist (parallel bridges, as between
        buses b and d via f or g in the paper's Figure 1), flows are
        spread across them deterministically by a stable digest of the
        flow name — each flow always takes the same path, and different
        flows balance over the alternatives, matching the paper's setup
        where both intermediate buses carry traffic.

        Computed once per flow and structural state: the memo entry is
        keyed by the buses of the flow's two endpoint processors.

        Raises
        ------
        TopologyError
            If no path exists between the two processors' clusters.
        """
        if flow_name not in self.flows:
            raise TopologyError(f"unknown flow {flow_name!r}")
        flow = self.flows[flow_name]
        ends = (
            self.processors[flow.source].bus,
            self.processors[flow.destination].bus,
        )
        memo = self._derived()
        cached = memo.routes.get(flow_name)
        if cached is not None and cached[0] == ends:
            return cached[1]
        route = self._find_route(flow_name, memo, *ends)
        memo.routes[flow_name] = (ends, route)
        return route

    def _find_route(
        self, flow_name: str, memo: "_Derived", src_bus: str, dst_bus: str
    ) -> Route:
        """The uncached body of :meth:`route`."""
        src_cluster = self.cluster_of_bus(src_bus)
        dst_cluster = self.cluster_of_bus(dst_bus)
        if src_cluster == dst_cluster:
            return Route(clusters=(src_cluster,), bridges=())
        if memo.bridge_adjacency is None:
            adjacency: _Adjacency = {cluster: [] for cluster in memo.clusters}
            for bridge in self.bridges.values():
                a = memo.cluster_by_bus[bridge.bus_a]
                b = memo.cluster_by_bus[bridge.bus_b]
                adjacency[a].append((bridge.name, b))
                adjacency[b].append((bridge.name, a))
            memo.bridge_adjacency = adjacency
        candidates = _shortest_bridge_paths(
            memo.bridge_adjacency, src_cluster, dst_cluster
        )
        if not candidates:
            raise TopologyError(
                f"flow {flow_name!r}: no bridge path between clusters"
            )
        candidates.sort(key=lambda item: item[1])
        digest = sum(flow_name.encode("utf-8")) * 2654435761 % 2**32
        chosen_clusters, chosen_bridges = candidates[digest % len(candidates)]
        return Route(
            clusters=chosen_clusters, bridges=chosen_bridges
        )

    # ------------------------------------------------------------------
    # Aggregates used by the sizing pipeline
    # ------------------------------------------------------------------

    def processor_offered_rate(self, processor: str) -> float:
        """Total mean rate the processor offers to its bus buffer."""
        if processor not in self.processors:
            raise TopologyError(f"unknown processor {processor!r}")
        return sum(
            f.rate for f in self.flows.values() if f.source == processor
        )

    def total_offered_rate(self) -> float:
        """Sum of all flow mean rates."""
        return sum(f.rate for f in self.flows.values())

    def validate(self) -> None:
        """Structural validation of the whole description.

        Raises
        ------
        TopologyError
            If any bus has neither processors nor bridges, any processor
            sends no flow *and* receives none (a dead component is allowed
            only if it also has zero loss weight), or any flow cannot be
            routed.
        """
        if not self.buses:
            raise TopologyError("topology has no buses")
        if not self.processors:
            raise TopologyError("topology has no processors")
        used_buses = {p.bus for p in self.processors.values()}
        for bridge in self.bridges.values():
            used_buses.add(bridge.bus_a)
            used_buses.add(bridge.bus_b)
        for link in self.links:
            used_buses.add(link.bus_a)
            used_buses.add(link.bus_b)
        orphans = set(self.buses) - used_buses
        if orphans:
            raise TopologyError(
                f"buses with no processors, bridges or links: {sorted(orphans)}"
            )
        for flow_name in self.flows:
            self.route(flow_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}: {len(self.buses)} buses, "
            f"{len(self.processors)} processors, "
            f"{len(self.bridges)} bridges, {len(self.flows)} flows)"
        )


#: Cluster -> every ``(bridge name, cluster at its other end)``.
_Adjacency = Dict[frozenset, List[Tuple[str, frozenset]]]


def _link_components(
    buses: Iterable[str], links: Iterable[BusLink]
) -> List[frozenset]:
    """Bus clusters: the components of the link graph, by smallest bus.

    Bridges are not edges here; cutting every bridge is what makes each
    component one linear subsystem.  A breadth-first search from each
    bus not yet reached collects its component.
    """
    neighbours: Dict[str, List[str]] = {bus: [] for bus in buses}
    for link in links:
        neighbours.setdefault(link.bus_a, []).append(link.bus_b)
        neighbours.setdefault(link.bus_b, []).append(link.bus_a)
    reached = set()
    clusters = []
    for start in neighbours:
        if start in reached:
            continue
        reached.add(start)
        component = [start]
        for bus in component:  # grows while iterated: breadth-first
            for other in neighbours[bus]:
                if other not in reached:
                    reached.add(other)
                    component.append(other)
        clusters.append(frozenset(component))
    return sorted(clusters, key=min)


def _shortest_bridge_paths(
    adjacency: _Adjacency, source: frozenset, target: frozenset
) -> List[Tuple[Tuple[frozenset, ...], Tuple[str, ...]]]:
    """Every shortest ``(clusters, bridges)`` path from source to target.

    A breadth-first search records, for each cluster, every
    ``(previous cluster, bridge)`` edge that reaches it at its level.
    Walking those edges back from ``target`` yields each shortest path
    once per choice of bridge, so parallel bridges between one cluster
    pair are distinct paths.  Empty if ``target`` is unreachable.
    """
    level = {source: 0}
    predecessors: Dict[frozenset, List[Tuple[frozenset, str]]] = {source: []}
    frontier = [source]
    while frontier and target not in level:
        following = []
        for cluster in frontier:
            for bridge, other in adjacency[cluster]:
                if other not in level:
                    level[other] = level[cluster] + 1
                    predecessors[other] = []
                    following.append(other)
                if level[other] == level[cluster] + 1:
                    predecessors[other].append((cluster, bridge))
        frontier = following
    if target not in level:
        return []
    paths = [((target,), ())]
    for _ in range(level[target]):
        paths = [
            ((previous,) + clusters, (bridge,) + bridges)
            for clusters, bridges in paths
            for previous, bridge in predecessors[clusters[0]]
        ]
    return paths


class _Derived:
    """One structural state's derived bus structure and route memo.

    ``key`` is the snapshot :meth:`Topology._derived` compares against;
    the bridge adjacency is built on the first bridge-crossing route,
    so a topology whose bridges are never routed never needs it.
    """

    __slots__ = (
        "key", "clusters", "cluster_by_bus", "bridge_adjacency", "routes",
    )

    def __init__(self, key: tuple, clusters: List[frozenset]) -> None:
        self.key = key
        self.clusters = clusters
        self.cluster_by_bus = {
            bus: cluster for cluster in clusters for bus in cluster
        }
        self.bridge_adjacency: Optional[_Adjacency] = None
        self.routes: Dict[str, Tuple[Tuple[str, str], Route]] = {}


def processor_names(topology: Topology) -> List[str]:
    """Processor names of any topology in report order.

    Numeric where names carry numbers (p1, p2, ..., p17 — the netproc
    testbed and the single-bus family), lexicographic otherwise (cpu,
    dma, ... on the template scenarios).  Every scenario-generic driver
    uses this ordering for its per-processor tables and bars.
    """
    def sort_key(name: str):
        digits = "".join(ch for ch in name if ch.isdigit())
        return (int(digits) if digits else 0, name)

    return sorted(topology.processors, key=sort_key)


def rebuilt_topology(
    topology: Topology,
    name: Optional[str] = None,
    flow_traffic=None,
    processor_loss_weight=None,
) -> Topology:
    """Structure-preserving copy with optional per-element transforms.

    Buses, links, bridges and processors are copied verbatim;
    ``flow_traffic(flow) -> TrafficDescriptor`` replaces each flow's
    traffic (load scaling, burstification) and
    ``processor_loss_weight(processor) -> float`` replaces each
    processor's loss weight (the weighted-loss extension).  The single
    copy loop every transform shares — so a new structural attribute
    only needs mirroring here.  The result is validated.
    """
    rebuilt = Topology(topology.name if name is None else name)
    for bus in topology.buses.values():
        rebuilt.add_bus(bus.name)
    for link in topology.links:
        rebuilt.add_link(link.bus_a, link.bus_b)
    for bridge in topology.bridges.values():
        rebuilt.add_bridge(
            bridge.name,
            bridge.bus_a,
            bridge.bus_b,
            service_rate=bridge.service_rate,
            loss_weight=bridge.loss_weight,
        )
    for proc in topology.processors.values():
        rebuilt.add_processor(
            proc.name,
            proc.bus,
            proc.service_rate,
            (
                proc.loss_weight
                if processor_loss_weight is None
                else processor_loss_weight(proc)
            ),
        )
    for flow in topology.flows.values():
        rebuilt.add_flow(
            flow.name,
            flow.source,
            flow.destination,
            flow.traffic if flow_traffic is None else flow_traffic(flow),
        )
    rebuilt.validate()
    return rebuilt
