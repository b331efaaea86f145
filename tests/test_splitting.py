"""Tests for repro.core.splitting."""

import pytest

from repro.arch.templates import amba_like, paper_figure1, single_bus
from repro.arch.netproc import network_processor
from repro.arch.topology import client_name_for_bridge
from repro.core.splitting import (
    bridge_arrival_rates,
    quadratic_coupling_count,
    split,
)
from repro.errors import TopologyError


class TestSplit:
    def test_single_bus_one_subsystem(self):
        system = split(single_bus(), capacity_cap=4)
        assert len(system.subsystems) == 1
        sub = system.subsystems[0]
        assert sub.bridge_client_names == []
        assert len(sub.processor_names) == 4

    def test_paper_figure1_four_subsystems(self):
        system = split(paper_figure1(), capacity_cap=3)
        assert len(system.subsystems) == 4

    def test_paper_figure1_bridge_buffers_where_flows_cross(self):
        system = split(paper_figure1(), capacity_cap=3)
        all_bridge_clients = [
            name
            for sub in system.subsystems
            for name in sub.bridge_client_names
        ]
        # Flows cross b->f/g->d and back: buffers appear on the entered
        # sides.  p2->p5 uses b1@f then b3@d (or b2@g/b4@d); return flows
        # enter the big cluster via b1@b or b2@b.
        assert any(name.endswith("@d") for name in all_bridge_clients)
        assert any(name.endswith("@b") for name in all_bridge_clients)

    def test_unused_bridge_direction_gets_no_buffer(self):
        # amba_like has flows in both directions across its only bridge,
        # so both directions exist; verify against a one-way topology.
        from repro.arch.topology import Topology

        topo = Topology("one-way")
        topo.add_bus("x")
        topo.add_bus("y")
        topo.add_processor("a", "x", 2.0)
        topo.add_processor("b", "y", 2.0)
        topo.add_bridge("br", "x", "y", 3.0)
        topo.add_poisson_flow("ab", "a", "b", 0.5)
        system = split(topo, capacity_cap=3)
        names = [
            n for sub in system.subsystems for n in sub.bridge_client_names
        ]
        assert names == [client_name_for_bridge("br", "y")]

    def test_processor_rates_sum_of_sourced_flows(self):
        system = split(paper_figure1(), capacity_cap=3)
        sub = system.subsystem_of_client("p2")
        assert sub.client("p2").arrival_rate == pytest.approx(0.7 + 0.6)

    def test_bridge_rates_initially_offered(self):
        system = split(paper_figure1(), capacity_cap=3)
        # p5's return flows f_52 (0.6) and f_53 (0.4) enter the big
        # cluster through bridge entries; total ingress at the cluster's
        # bridge buffers equals 1.0 un-thinned.
        big = system.subsystem_of_client("p1")
        ingress = sum(
            big.client(n).arrival_rate for n in big.bridge_client_names
        )
        assert ingress == pytest.approx(1.0)

    def test_capacity_cap_applied(self):
        system = split(paper_figure1(), capacity_cap=7)
        for sub in system.subsystems:
            for client in sub.clients:
                assert client.capacity == 7

    def test_bad_capacity_cap(self):
        with pytest.raises(TopologyError):
            split(paper_figure1(), capacity_cap=0)

    def test_flow_hops_start_at_source(self):
        system = split(paper_figure1(), capacity_cap=3)
        hops = system.flow_hops["f_25"]
        assert hops[0].client == "p2"
        assert len(hops) == 3  # source + two bridge entries

    def test_all_client_names_unique(self):
        system = split(network_processor(), capacity_cap=4)
        names = system.all_client_names()
        assert len(names) == len(set(names))

    def test_subsystem_of_client_unknown(self):
        system = split(single_bus(), capacity_cap=3)
        with pytest.raises(TopologyError):
            system.subsystem_of_client("ghost")

    def test_with_rates_roundtrip(self):
        system = split(amba_like(), capacity_cap=3)
        sub = system.subsystems[0]
        bridge_names = sub.bridge_client_names
        if bridge_names:
            updated = sub.with_rates({bridge_names[0]: 0.123})
            assert updated.client(bridge_names[0]).arrival_rate == 0.123
            # Original untouched.
            assert sub.client(bridge_names[0]).arrival_rate != 0.123


class TestBridgeArrivalRates:
    def test_no_blocking_gives_offered(self):
        system = split(paper_figure1(), capacity_cap=3)
        rates = bridge_arrival_rates(system, blocking={})
        big = system.subsystem_of_client("p1")
        total = sum(rates[n] for n in big.bridge_client_names)
        assert total == pytest.approx(1.0)

    def test_source_blocking_thins(self):
        system = split(paper_figure1(), capacity_cap=3)
        # Block half of everything leaving p5.
        rates_full = bridge_arrival_rates(system, blocking={})
        rates_thin = bridge_arrival_rates(system, blocking={"p5": 0.5})
        big = system.subsystem_of_client("p1")
        full = sum(rates_full[n] for n in big.bridge_client_names)
        thin = sum(rates_thin[n] for n in big.bridge_client_names)
        assert thin == pytest.approx(0.5 * full)

    def test_intermediate_blocking_compounds(self):
        system = split(paper_figure1(), capacity_cap=3)
        hops = system.flow_hops["f_25"]
        first_bridge = hops[1].client
        second_bridge = hops[2].client
        rates = bridge_arrival_rates(
            system, blocking={"p2": 0.5, first_bridge: 0.5}
        )
        # f_25 contributes 0.6 * 0.5 at the first bridge and
        # 0.6 * 0.25 at the second.
        assert rates[first_bridge] >= 0.6 * 0.5 - 1e-9
        contribution = 0.6 * 0.25
        assert rates[second_bridge] >= contribution - 1e-9

    def test_blocking_clamped(self):
        system = split(paper_figure1(), capacity_cap=3)
        rates = bridge_arrival_rates(system, blocking={"p2": 2.0})
        assert all(r >= 0 for r in rates.values())


class TestCouplingCount:
    def test_single_bus_zero(self):
        assert quadratic_coupling_count(single_bus()) == 0

    def test_paper_figure1_positive(self):
        count = quadratic_coupling_count(paper_figure1())
        assert count >= 4  # at least four used bridge directions

    def test_netproc_positive(self):
        assert quadratic_coupling_count(network_processor()) >= 4
