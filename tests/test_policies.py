"""Tests for repro.policies."""

import pytest

from repro.arch.templates import amba_like, paper_figure1, single_bus
from repro.arch.topology import Topology
from repro.errors import PolicyError
from repro.policies.analytic import AnalyticGreedySizing
from repro.policies.base import largest_remainder_rounding, sizing_clients
from repro.policies.ctmdp_policy import CTMDPSizing
from repro.policies.proportional import ProportionalSizing
from repro.policies.timeout import calibrate_timeout_threshold
from repro.policies.uniform import UniformSizing


def asym_topology():
    topo = Topology("asym")
    topo.add_bus("x")
    topo.add_processor("hot", "x", service_rate=5.0)
    topo.add_processor("cold", "x", service_rate=5.0)
    topo.add_processor("sink", "x", service_rate=5.0)
    topo.add_poisson_flow("h", "hot", "sink", 3.0)
    topo.add_poisson_flow("c", "cold", "sink", 0.3)
    return topo


class TestSizingClients:
    def test_covers_processors_and_bridges(self):
        topo = paper_figure1()
        names = {c.name for c in sizing_clients(topo)}
        assert {"p1", "p2", "p3", "p4", "p5"} <= names
        assert any("@" in n for n in names)

    def test_rates_match_topology(self):
        topo = asym_topology()
        clients = {c.name: c for c in sizing_clients(topo)}
        assert clients["hot"].arrival_rate == pytest.approx(3.0)
        assert clients["cold"].arrival_rate == pytest.approx(0.3)
        assert clients["sink"].arrival_rate == pytest.approx(0.0)

    def test_competitors_counted(self):
        topo = asym_topology()
        clients = sizing_clients(topo)
        assert all(c.competitors == 3 for c in clients)


class TestLargestRemainder:
    def test_sums_to_budget(self):
        sizes = largest_remainder_rounding(
            {"a": 1.0, "b": 2.0, "c": 3.0}, 10
        )
        assert sum(sizes.values()) == 10

    def test_respects_shares(self):
        sizes = largest_remainder_rounding({"a": 9.0, "b": 1.0}, 12)
        assert sizes["a"] > sizes["b"]

    def test_zero_shares_spread_evenly(self):
        sizes = largest_remainder_rounding({"a": 0.0, "b": 0.0}, 6)
        assert sizes == {"a": 3, "b": 3}

    def test_min_size_floor(self):
        sizes = largest_remainder_rounding({"a": 100.0, "b": 0.0}, 5)
        assert sizes["b"] >= 1

    def test_budget_too_small(self):
        with pytest.raises(PolicyError):
            largest_remainder_rounding({"a": 1.0, "b": 1.0}, 1)

    def test_empty_rejected(self):
        with pytest.raises(PolicyError):
            largest_remainder_rounding({}, 5)

    def test_deterministic_tie_break(self):
        s1 = largest_remainder_rounding({"a": 1.0, "b": 1.0, "c": 1.0}, 7)
        s2 = largest_remainder_rounding({"a": 1.0, "b": 1.0, "c": 1.0}, 7)
        assert s1 == s2


class TestUniform:
    def test_equal_sizes(self):
        topo = single_bus(num_processors=4)
        alloc = UniformSizing().allocate(topo, 12)
        assert set(alloc.sizes.values()) == {3}

    def test_budget_exact(self):
        topo = paper_figure1()
        alloc = UniformSizing().allocate(topo, 25)
        assert alloc.total == 25

    def test_too_small_budget(self):
        topo = single_bus(num_processors=4)
        with pytest.raises(PolicyError):
            UniformSizing().allocate(topo, 2)


class TestProportional:
    def test_follows_traffic(self):
        topo = asym_topology()
        alloc = ProportionalSizing().allocate(topo, 12)
        assert alloc.sizes["hot"] > alloc.sizes["cold"]
        assert alloc.total == 12

    def test_sink_gets_minimum(self):
        topo = asym_topology()
        alloc = ProportionalSizing().allocate(topo, 12)
        assert alloc.sizes["sink"] == 1


class TestAnalyticGreedy:
    def test_budget_exact(self):
        topo = paper_figure1()
        alloc = AnalyticGreedySizing().allocate(topo, 30)
        assert alloc.total == 30

    def test_prefers_loaded_clients(self):
        topo = asym_topology()
        alloc = AnalyticGreedySizing().allocate(topo, 12)
        assert alloc.sizes["hot"] > alloc.sizes["cold"]



class TestCTMDPPolicy:
    def test_allocates_and_caches_result(self):
        topo = amba_like()
        policy = CTMDPSizing()
        alloc = policy.allocate(topo, 14)
        assert alloc.total == 14
        assert policy.last_result is not None
        assert policy.last_result.allocation is alloc


class TestTimeoutCalibration:
    def test_positive_threshold(self):
        topo = single_bus(arrival_rate=2.0, service_rate=3.0)
        caps = {p: 3 for p in topo.processors}
        threshold = calibrate_timeout_threshold(
            topo, caps, duration=500.0, seed=1
        )
        assert threshold > 0

    def test_multiplier_scales(self):
        topo = single_bus(arrival_rate=2.0, service_rate=3.0)
        caps = {p: 3 for p in topo.processors}
        t1 = calibrate_timeout_threshold(topo, caps, duration=500.0)
        t2 = calibrate_timeout_threshold(
            topo, caps, duration=500.0, multiplier=2.0
        )
        assert t2 == pytest.approx(2.0 * t1)

    def test_validation(self):
        topo = single_bus()
        caps = {p: 3 for p in topo.processors}
        with pytest.raises(PolicyError):
            calibrate_timeout_threshold(topo, caps, duration=0.0)
        with pytest.raises(PolicyError):
            calibrate_timeout_threshold(topo, caps, multiplier=0.0)

    def test_floor_applies(self):
        # Nearly idle system: threshold should still be positive.
        topo = single_bus(arrival_rate=0.01, service_rate=100.0)
        caps = {p: 10 for p in topo.processors}
        threshold = calibrate_timeout_threshold(
            topo, caps, duration=50.0, floor=0.5
        )
        assert threshold >= 0.5
