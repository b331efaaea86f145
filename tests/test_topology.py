"""Tests for repro.arch.topology and templates."""

import copy
import pickle

import pytest

from repro import scenarios
from repro.arch import topology as topology_module
from repro.arch.templates import (
    amba_like,
    coreconnect_like,
    paper_figure1,
    single_bus,
)
from repro.arch.netproc import network_processor, processor_names
from repro.arch.topology import (
    Bridge,
    BusLink,
    Flow,
    Processor,
    Topology,
)
from repro.arch.traffic import PoissonTraffic
from repro.arch.validate import cluster_loads
from repro.errors import TopologyError


def tiny_bridged():
    topo = Topology("tiny")
    topo.add_bus("x")
    topo.add_bus("y")
    topo.add_processor("a", "x", service_rate=2.0)
    topo.add_processor("b", "y", service_rate=2.0)
    topo.add_bridge("br", "x", "y", service_rate=3.0)
    topo.add_poisson_flow("ab", "a", "b", 0.5)
    return topo


class TestConstruction:
    def test_duplicate_bus(self):
        topo = Topology()
        topo.add_bus("x")
        with pytest.raises(TopologyError, match="duplicate bus"):
            topo.add_bus("x")

    def test_processor_unknown_bus(self):
        topo = Topology()
        with pytest.raises(TopologyError, match="unknown bus"):
            topo.add_processor("p", "nope", service_rate=1.0)

    def test_duplicate_processor(self):
        topo = Topology()
        topo.add_bus("x")
        topo.add_processor("p", "x", 1.0)
        with pytest.raises(TopologyError, match="duplicate processor"):
            topo.add_processor("p", "x", 1.0)

    def test_bridge_same_bus_rejected(self):
        with pytest.raises(TopologyError, match="distinct buses"):
            Bridge("b", "x", "x", 1.0)

    def test_bridge_unknown_bus(self):
        topo = Topology()
        topo.add_bus("x")
        with pytest.raises(TopologyError, match="unknown bus"):
            topo.add_bridge("b", "x", "nope", 1.0)

    def test_duplicate_bridge(self):
        topo = tiny_bridged()
        with pytest.raises(TopologyError, match="duplicate bridge"):
            topo.add_bridge("br", "x", "y", 1.0)

    def test_flow_unknown_processor(self):
        topo = tiny_bridged()
        with pytest.raises(TopologyError, match="unknown processor"):
            topo.add_poisson_flow("zz", "a", "ghost", 1.0)

    def test_flow_self_loop_rejected(self):
        topo = tiny_bridged()
        with pytest.raises(TopologyError, match="source equals destination"):
            topo.add_poisson_flow("self", "a", "a", 1.0)

    def test_duplicate_flow(self):
        topo = tiny_bridged()
        with pytest.raises(TopologyError, match="duplicate flow"):
            topo.add_poisson_flow("ab", "a", "b", 1.0)


class TestClusters:
    def test_bridge_cuts_clusters(self):
        topo = tiny_bridged()
        clusters = topo.bus_clusters()
        assert clusters == [frozenset({"x"}), frozenset({"y"})]

    def test_links_merge_clusters(self):
        topo = Topology()
        for bus in ("x", "y", "z"):
            topo.add_bus(bus)
        topo.add_link("x", "y")
        topo.add_bridge("br", "y", "z", 1.0)
        clusters = topo.bus_clusters()
        assert frozenset({"x", "y"}) in clusters
        assert frozenset({"z"}) in clusters

    def test_cluster_of_bus(self):
        topo = tiny_bridged()
        assert topo.cluster_of_bus("x") == frozenset({"x"})
        with pytest.raises(TopologyError):
            topo.cluster_of_bus("nope")

    def test_cluster_processors_sorted(self):
        topo = paper_figure1()
        cluster = topo.cluster_of_bus("b")
        names = [p.name for p in topo.cluster_processors(cluster)]
        assert names == ["p1", "p2", "p3", "p4"]

    def test_cluster_bridges(self):
        topo = paper_figure1()
        cluster = topo.cluster_of_bus("b")
        names = [b.name for b in topo.cluster_bridges(cluster)]
        assert names == ["b1", "b2"]


class TestRouting:
    def test_local_route(self):
        topo = paper_figure1()
        route = topo.route("f_12")
        assert not route.bridges
        assert len(route.clusters) == 1

    def test_bridged_route(self):
        topo = paper_figure1()
        route = topo.route("f_25")
        assert route.bridges
        # p2 (cluster a,b,c,e) -> p5 (bus d): two bridges.
        assert len(route.bridges) == 2
        assert route.bridges[0] in ("b1", "b2")
        assert route.bridges[1] in ("b3", "b4")

    def test_route_deterministic(self):
        topo = paper_figure1()
        r1 = topo.route("f_25")
        r2 = topo.route("f_25")
        assert r1 == r2

    def test_unknown_flow(self):
        topo = paper_figure1()
        with pytest.raises(TopologyError, match="unknown flow"):
            topo.route("ghost")

    def test_unroutable_flow(self):
        topo = Topology()
        topo.add_bus("x")
        topo.add_bus("y")
        topo.add_processor("a", "x", 1.0)
        topo.add_processor("b", "y", 1.0)
        topo.add_poisson_flow("ab", "a", "b", 1.0)
        with pytest.raises(TopologyError, match="no bridge path"):
            topo.route("ab")


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(TopologyError, match="no buses"):
            Topology().validate()

    def test_no_processors_rejected(self):
        topo = Topology()
        topo.add_bus("x")
        with pytest.raises(TopologyError, match="no processors"):
            topo.validate()

    def test_orphan_bus_rejected(self):
        topo = tiny_bridged()
        topo.add_bus("orphan")
        with pytest.raises(TopologyError, match="orphan"):
            topo.validate()

    def test_valid_passes(self):
        tiny_bridged().validate()


class TestAggregates:
    def test_processor_offered_rate(self):
        topo = paper_figure1()
        # p2 sources f_23 (0.7) and f_25 (0.6).
        assert topo.processor_offered_rate("p2") == pytest.approx(1.3)

    def test_total_offered_rate(self):
        topo = tiny_bridged()
        assert topo.total_offered_rate() == pytest.approx(0.5)

    def test_unknown_processor(self):
        topo = tiny_bridged()
        with pytest.raises(TopologyError):
            topo.processor_offered_rate("ghost")


class TestTemplates:
    def test_single_bus(self):
        topo = single_bus(num_processors=5)
        assert len(topo.processors) == 5
        assert len(topo.bus_clusters()) == 1

    def test_single_bus_too_small(self):
        with pytest.raises(TopologyError):
            single_bus(num_processors=1)

    def test_paper_figure1_four_subsystems(self):
        topo = paper_figure1()
        assert len(topo.bus_clusters()) == 4
        assert len(topo.bridges) == 4
        assert len(topo.processors) == 5

    def test_amba_like(self):
        topo = amba_like()
        assert len(topo.bus_clusters()) == 2
        assert "ahb2apb" in topo.bridges

    def test_coreconnect_like(self):
        topo = coreconnect_like()
        assert frozenset({"plb", "plb2"}) in topo.bus_clusters()
        # Two parallel bridges: routes still resolve deterministically.
        route = topo.route("ppc_eth")
        assert route.bridges


class TestNetworkProcessor:
    def test_seventeen_processors(self):
        topo = network_processor()
        assert len(topo.processors) == 17

    def test_five_clusters(self):
        topo = network_processor()
        assert len(topo.bus_clusters()) == 5
        assert len(topo.bridges) == 4

    def test_deterministic(self):
        t1 = network_processor(seed=11)
        t2 = network_processor(seed=11)
        assert t1.processor_offered_rate("p3") == t2.processor_offered_rate(
            "p3"
        )

    def test_seed_changes_rates(self):
        t1 = network_processor(seed=1)
        t2 = network_processor(seed=2)
        rates1 = [t1.processor_offered_rate(p) for p in t1.processors]
        rates2 = [t2.processor_offered_rate(p) for p in t2.processors]
        assert rates1 != rates2

    def test_load_scale(self):
        base = network_processor(seed=3, load_scale=1.0)
        heavy = network_processor(seed=3, load_scale=2.0)
        assert heavy.total_offered_rate() == pytest.approx(
            2.0 * base.total_offered_rate()
        )

    def test_load_scale_validation(self):
        with pytest.raises(TopologyError):
            network_processor(load_scale=0.0)

    def test_processor_names_order(self):
        topo = network_processor()
        names = processor_names(topo)
        assert names[0] == "p1"
        assert names[-1] == "p17"


class TestClusterLoads:
    def test_loads_positive(self):
        topo = network_processor()
        loads = cluster_loads(topo)
        assert len(loads) == 5
        assert all(l.offered_rate > 0 for l in loads)

    def test_bridge_ingress_counted(self):
        topo = tiny_bridged()
        loads = {tuple(sorted(l.cluster)): l for l in cluster_loads(topo)}
        # Cluster y receives flow ab through the bridge.
        assert loads[("y",)].offered_rate == pytest.approx(0.5)

    def test_not_overloaded_default(self):
        topo = network_processor()
        assert all(load.utilisation <= 1.5 for load in cluster_loads(topo))

    def test_overload_detected(self):
        topo = Topology()
        topo.add_bus("x")
        topo.add_processor("a", "x", service_rate=1.0)
        topo.add_processor("b", "x", service_rate=1.0)
        topo.add_poisson_flow("ab", "a", "b", 10.0)
        (load,) = cluster_loads(topo)
        assert load.utilisation == pytest.approx(10.0)


# -- derived-structure and route memos ----------------------------------

#: Every registry scenario plus generated random-mesh members of
#: several sizes (one is the 8-cluster benchmark mesh).
MEMO_SCENARIOS = tuple(scenarios.names()) + (
    "random-mesh-2-7",
    "random-mesh-4-3",
    "random-mesh-8-1",
    "single-bus-4",
)


def _fresh_copy(topology):
    """A structurally equal topology that has never been queried."""
    copy = Topology(topology.name)
    for name in topology.buses:
        copy.add_bus(name)
    for link in topology.links:
        copy.add_link(link.bus_a, link.bus_b)
    for bridge in topology.bridges.values():
        copy.add_bridge(
            bridge.name, bridge.bus_a, bridge.bus_b, bridge.service_rate
        )
    for proc in topology.processors.values():
        copy.add_processor(proc.name, proc.bus, proc.service_rate)
    for flow in topology.flows.values():
        copy.add_flow(flow.name, flow.source, flow.destination, flow.traffic)
    return copy


def _assert_matches_fresh(topology):
    """Every answer equals a cold computation on a never-queried copy.

    Each route is checked against its own fresh copy, so the reference
    is never served by a memo of any kind.
    """
    assert topology.bus_clusters() == _fresh_copy(topology).bus_clusters()
    for name in topology.flows:
        assert topology.route(name) == _fresh_copy(topology).route(name)


def _chain():
    """Buses x - y - z joined by bridges b1, b2; flow ac crosses both."""
    topo = Topology("chain")
    for bus in ("x", "y", "z"):
        topo.add_bus(bus)
    topo.add_bridge("b1", "x", "y", service_rate=3.0)
    topo.add_bridge("b2", "y", "z", service_rate=3.0)
    topo.add_processor("a", "x", service_rate=2.0)
    topo.add_processor("b", "y", service_rate=2.0)
    topo.add_processor("c", "z", service_rate=2.0)
    topo.add_poisson_flow("ac", "a", "c", 0.5)
    topo.add_poisson_flow("ab", "a", "b", 0.5)
    return topo


class TestMemo:
    @pytest.mark.parametrize("name", MEMO_SCENARIOS)
    def test_memoised_answers_match_fresh_topology(self, name):
        topology = scenarios.get(name).topology()
        # Query repeatedly, in both orders, before comparing.
        for flow in list(topology.flows) + list(reversed(topology.flows)):
            topology.route(flow)
        topology.bus_clusters()
        _assert_matches_fresh(topology)

    def test_add_calls_after_query_recompute(self):
        topo = _chain()
        assert topo.route("ac").bridges == ("b1", "b2")
        topo.add_bridge("b3", "x", "z", service_rate=3.0)
        assert topo.route("ac").bridges == ("b3",)
        _assert_matches_fresh(topo)

        topo.add_bus("w")
        assert frozenset({"w"}) in topo.bus_clusters()
        topo.add_link("z", "w")
        assert frozenset({"z", "w"}) in topo.bus_clusters()
        assert topo.cluster_of_bus("w") == frozenset({"z", "w"})
        assert topo.route("ac").clusters[-1] == frozenset({"z", "w"})
        _assert_matches_fresh(topo)

    def test_direct_edits_after_query_recompute(self):
        topo = _chain()
        _assert_matches_fresh(topo)
        # Same endpoints, new traffic: the edit tests/test_exec_runtime.py
        # makes when it perturbs a flow in place.
        flow = topo.flows["ac"]
        topo.flows["ac"] = type(flow)(
            name=flow.name,
            source=flow.source,
            destination=flow.destination,
            traffic=flow.traffic.scaled(1.01),
        )
        _assert_matches_fresh(topo)
        # New endpoints: the route must follow them.
        topo.flows["ac"] = Flow("ac", "b", "c", flow.traffic)
        assert topo.route("ac").bridges == ("b2",)
        _assert_matches_fresh(topo)
        # A processor moved to another bus.
        topo.processors["b"] = Processor("b", "x", 2.0)
        assert topo.route("ac").bridges == ("b1", "b2")
        assert not topo.route("ab").bridges
        _assert_matches_fresh(topo)
        # Links, bridges and buses edited in place.
        topo.links.append(BusLink("y", "z"))
        assert topo.route("ac").bridges == ("b1",)
        _assert_matches_fresh(topo)
        topo.bridges["b1"] = Bridge("b1", "x", "z", 3.0)
        assert topo.route("ac").bridges == ("b1",)
        assert topo.route("ac").clusters[-1] == frozenset({"y", "z"})
        topo.buses["v"] = topo.buses["x"]
        assert frozenset({"v"}) in topo.bus_clusters()
        _assert_matches_fresh(topo)

    def test_each_caller_gets_its_own_cluster_list(self):
        topo = _chain()
        first = topo.bus_clusters()
        first.clear()
        assert len(topo.bus_clusters()) == 3
        assert topo.bus_clusters() is not topo.bus_clusters()

    def test_memo_stays_out_of_pickles(self):
        topology = scenarios.get("netproc").topology()
        blank = pickle.dumps(_fresh_copy(topology))
        before = len(pickle.dumps(topology))
        for flow in topology.flows:
            topology.route(flow)
        topology.bus_clusters()
        assert len(pickle.dumps(topology)) == before == len(blank)
        restored = pickle.loads(pickle.dumps(topology))
        _assert_matches_fresh(restored)
        flow = next(iter(topology.flows))
        assert copy.copy(topology).route(flow) == topology.route(flow)

    def test_netproc_system_build_computes_components_once(
        self, monkeypatch
    ):
        from repro.policies.uniform import UniformSizing
        from repro.sim.system import CommunicationSystem

        spec = scenarios.get("netproc")
        capacities = (
            UniformSizing()
            .allocate(spec.topology(), spec.default_budget)
            .as_capacities()
        )
        calls = []
        real = topology_module._link_components

        def counting(buses, links):
            calls.append(buses)
            return real(buses, links)

        monkeypatch.setattr(topology_module, "_link_components", counting)
        CommunicationSystem(spec.topology(), capacities, seed=0)
        assert len(calls) == 1


# -- routing oracle ------------------------------------------------------

#: Every registry scenario (fig1 among them), two single-bus members
#: and 35 generated meshes of 2 to 8 clusters.
ORACLE_SCENARIOS = (
    tuple(scenarios.names())
    + ("single-bus-4", "single-bus-6")
    + tuple(
        f"random-mesh-{clusters}-{seed}"
        for clusters in range(2, 9)
        for seed in range(1, 6)
    )
)


def _ladder():
    """Parallel bridges on consecutive hops, a diamond, and a bridge
    whose two buses are linked into one cluster.  The link names its
    later bus first, so a search that follows links one way only
    splits the cluster."""
    topo = Topology("ladder")
    for bus in ("u", "v", "w", "x", "y", "z"):
        topo.add_bus(bus)
    topo.add_link("v", "u")
    topo.add_bridge("inner", "u", "v", service_rate=3.0)
    topo.add_bridge("p1", "v", "x", service_rate=3.0)
    topo.add_bridge("p2", "u", "x", service_rate=3.0)
    topo.add_bridge("q1", "x", "z", service_rate=3.0)
    topo.add_bridge("q2", "x", "z", service_rate=3.0)
    topo.add_bridge("d1", "u", "w", service_rate=3.0)
    topo.add_bridge("d2", "w", "y", service_rate=3.0)
    topo.add_bridge("d3", "x", "y", service_rate=3.0)
    for name, bus in (("a", "u"), ("b", "z"), ("c", "y"), ("d", "w")):
        topo.add_processor(name, bus, service_rate=2.0)
    for src in "abcd":
        for dst in "abcd":
            if src != dst:
                topo.add_poisson_flow(f"{src}{dst}", src, dst, 0.1)
    return topo


def _union_find_clusters(topology):
    """Bus clusters by union-find over the links, by smallest bus."""
    parent = {bus: bus for bus in topology.buses}

    def root(bus):
        while parent[bus] != bus:
            bus = parent[bus]
        return bus

    for link in topology.links:
        parent[root(link.bus_a)] = root(link.bus_b)
    groups = {}
    for bus in topology.buses:
        groups.setdefault(root(bus), set()).add(bus)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def _brute_force_route(topology, flow_name):
    """The route of a flow from every simple bridge path, enumerated.

    A depth-first search lists every bridge sequence that never revisits
    a cluster; the shortest ones, sorted by bridge names, are the
    candidates, and the flow-name digest picks one, as the routing
    contract specifies.  Parallel bridges are distinct sequences.
    """
    flow = topology.flows[flow_name]
    cluster_of = {
        bus: cluster
        for cluster in _union_find_clusters(topology)
        for bus in cluster
    }
    source = cluster_of[topology.processors[flow.source].bus]
    target = cluster_of[topology.processors[flow.destination].bus]
    paths = []

    def extend(clusters, bridges):
        if clusters[-1] == target:
            paths.append((tuple(clusters), tuple(bridges)))
            return
        for bridge in topology.bridges.values():
            for near, far in (
                (bridge.bus_a, bridge.bus_b),
                (bridge.bus_b, bridge.bus_a),
            ):
                nxt = cluster_of[far]
                if cluster_of[near] == clusters[-1] and nxt not in clusters:
                    extend(clusters + [nxt], bridges + [bridge.name])

    extend([source], [])
    if not paths:
        raise TopologyError(f"flow {flow_name!r}: no bridge path")
    shortest = min(len(bridges) for _, bridges in paths)
    candidates = sorted(
        (path for path in paths if len(path[1]) == shortest),
        key=lambda path: path[1],
    )
    digest = sum(flow_name.encode("utf-8")) * 2654435761 % 2**32
    return candidates[digest % len(candidates)]


class TestRoutingOracle:
    @pytest.mark.parametrize("name", ORACLE_SCENARIOS + ("ladder",))
    def test_routes_equal_brute_force_enumeration(self, name):
        topology = (
            _ladder() if name == "ladder" else scenarios.get(name).topology()
        )
        assert topology.bus_clusters() == _union_find_clusters(topology)
        for flow in topology.flows:
            route = topology.route(flow)
            assert (route.clusters, route.bridges) == _brute_force_route(
                topology, flow
            )

    def test_ladder_spreads_flows_over_parallel_bridges(self):
        # Between cluster {u, v} and bus z lie four shortest paths (p1
        # or p2, then q1 or q2); the inner bridge is on no shortest path.
        topology = _ladder()
        used = {
            bridge
            for flow in topology.flows
            for bridge in topology.route(flow).bridges
        }
        assert "inner" not in used
        assert {"p1", "p2", "q1", "q2"} <= used

    def test_no_bridge_path_between_bridged_islands_raises(self):
        topo = Topology("islands")
        for bus in ("a1", "a2", "b1", "b2"):
            topo.add_bus(bus)
        topo.add_bridge("ab", "a1", "a2", service_rate=3.0)
        topo.add_bridge("cd", "b1", "b2", service_rate=3.0)
        topo.add_processor("p", "a1", service_rate=2.0)
        topo.add_processor("q", "a2", service_rate=2.0)
        topo.add_processor("r", "b2", service_rate=2.0)
        topo.add_poisson_flow("pq", "p", "q", 0.5)
        topo.add_poisson_flow("pr", "p", "r", 0.5)
        assert topo.route("pq").bridges == ("ab",)
        with pytest.raises(TopologyError, match="no bridge path"):
            topo.route("pr")
        with pytest.raises(TopologyError, match="no bridge path"):
            _brute_force_route(topo, "pr")
