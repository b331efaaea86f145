"""Integration tests for the discrete-event simulator.

The single most important test validates the simulator against the exact
M/M/1/K loss formula; the rest exercise multi-hop routing, conservation
laws, timeouts, warmup and replication.
"""

import numpy as np
import pytest

from repro.arch.templates import paper_figure1, single_bus
from repro.arch.topology import Topology, client_name_for_bridge
from repro.errors import SimulationError
from repro.queueing.mm1k import MM1KQueue
from repro.sim.runner import ReplicationSummary, replicate, simulate
from repro.policies.base import sizing_clients
from repro.sim.system import CommunicationSystem


def one_queue_topology(lam=2.0, mu=3.0):
    topo = Topology("one-queue")
    topo.add_bus("x")
    topo.add_processor("src", "x", service_rate=mu)
    topo.add_processor("dst", "x", service_rate=mu)
    topo.add_poisson_flow("f", "src", "dst", lam)
    return topo


class TestMM1KValidation:
    @pytest.mark.parametrize(
        "lam,mu,k",
        [(2.0, 3.0, 3), (1.0, 1.5, 5), (3.0, 2.0, 4)],
    )
    def test_blocking_matches_analytic(self, lam, mu, k):
        """A single source on an otherwise idle bus is exactly M/M/1/K
        (the buffer slot of the in-service packet included)."""
        topo = one_queue_topology(lam, mu)
        result = simulate(
            topo,
            {"src": k, "dst": 1},
            duration=60_000.0,
            seed=7,
            warmup=500.0,
        )
        simulated_blocking = result.lost["src"] / result.offered["src"]
        expected = MM1KQueue(lam, mu, k).blocking_probability()
        assert simulated_blocking == pytest.approx(expected, rel=0.08)

    def test_loss_rate_matches_analytic(self):
        lam, mu, k = 2.5, 3.0, 4
        topo = one_queue_topology(lam, mu)
        result = simulate(
            topo, {"src": k, "dst": 1}, duration=60_000.0, seed=11,
            warmup=500.0,
        )
        expected = MM1KQueue(lam, mu, k).loss_rate()
        assert result.loss_rate("src") == pytest.approx(expected, rel=0.1)


class TestConservation:
    def test_offered_equals_lost_plus_delivered_plus_inflight(self):
        topo = single_bus(num_processors=4, arrival_rate=1.5, service_rate=3.0)
        caps = {p: 3 for p in topo.processors}
        result = simulate(topo, caps, duration=5_000.0, seed=3)
        total = result.total_offered
        accounted = result.total_lost + sum(result.delivered.values())
        # In-flight packets at the horizon: bounded by total buffer space.
        assert 0 <= total - accounted <= sum(caps.values())

    def test_zero_capacity_loses_all(self):
        topo = one_queue_topology()
        result = simulate(topo, {"src": 0, "dst": 1}, duration=1_000.0, seed=1)
        assert result.lost["src"] == result.offered["src"]
        assert result.delivered["src"] == 0

    def test_huge_buffers_lossless(self):
        topo = single_bus(num_processors=3, arrival_rate=0.3, service_rate=9.0)
        caps = {p: 500 for p in topo.processors}
        result = simulate(topo, caps, duration=5_000.0, seed=5)
        assert result.total_lost == 0


class TestBridgedRouting:
    def test_paper_topology_delivers_across_bridges(self):
        topo = paper_figure1()
        caps = {c.name: 8 for c in sizing_clients(topo)}
        result = simulate(topo, caps, duration=5_000.0, seed=2)
        # p2 -> p5 crosses two bridges; deliveries must happen.
        assert result.delivered["p2"] > 0
        assert result.delivered["p5"] > 0

    def test_missing_bridge_buffer_loses_crossing_traffic(self):
        topo = paper_figure1()
        caps = {c.name: 8 for c in sizing_clients(topo)}
        # Remove all bridge buffers: cross-cluster flows die at the first
        # bridge, attributed to their source processors.
        for name in list(caps):
            if "@" in name:
                caps[name] = 0
        result = simulate(topo, caps, duration=3_000.0, seed=2)
        assert result.lost["p5"] > 0  # p5 sources two bridged flows
        # Local cluster flow p1 -> p2 is unaffected by bridges; with large
        # local buffers it should lose nothing.
        assert result.delivered["p1"] > 0

    def test_bigger_bridge_buffers_reduce_loss(self):
        topo = paper_figure1()
        small = {c.name: 2 for c in sizing_clients(topo)}
        big = dict(small)
        for name in big:
            if "@" in name:
                big[name] = 10
        r_small = simulate(topo, small, duration=8_000.0, seed=4)
        r_big = simulate(topo, big, duration=8_000.0, seed=4)
        assert r_big.total_lost < r_small.total_lost


class TestTimeoutPolicy:
    def test_timeout_creates_extra_loss(self):
        topo = single_bus(num_processors=4, arrival_rate=2.0, service_rate=3.0)
        caps = {p: 6 for p in topo.processors}
        plain = simulate(topo, caps, duration=8_000.0, seed=6)
        strict = simulate(
            topo, caps, duration=8_000.0, seed=6, timeout_threshold=0.05
        )
        assert sum(strict.timed_out.values()) > 0
        assert strict.total_lost > plain.total_lost

    def test_generous_timeout_harmless(self):
        topo = single_bus(num_processors=3, arrival_rate=0.4, service_rate=8.0)
        caps = {p: 10 for p in topo.processors}
        result = simulate(
            topo, caps, duration=3_000.0, seed=6, timeout_threshold=1e6
        )
        assert sum(result.timed_out.values()) == 0

    def test_invalid_threshold_rejected(self):
        topo = one_queue_topology()
        with pytest.raises(SimulationError):
            simulate(topo, {"src": 1, "dst": 1}, timeout_threshold=0.0)


class TestRunnerMechanics:
    def test_missing_processor_capacity_rejected(self):
        topo = one_queue_topology()
        with pytest.raises(SimulationError, match="missing processor"):
            simulate(topo, {"src": 2}, duration=100.0)

    def test_determinism(self):
        topo = single_bus()
        caps = {p: 3 for p in topo.processors}
        r1 = simulate(topo, caps, duration=2_000.0, seed=9)
        r2 = simulate(topo, caps, duration=2_000.0, seed=9)
        assert r1.lost == r2.lost
        assert r1.offered == r2.offered

    def test_seed_matters(self):
        topo = single_bus(arrival_rate=2.0, service_rate=3.0)
        caps = {p: 2 for p in topo.processors}
        r1 = simulate(topo, caps, duration=2_000.0, seed=1)
        r2 = simulate(topo, caps, duration=2_000.0, seed=2)
        assert r1.offered != r2.offered

    def test_warmup_removes_transient_counts(self):
        topo = one_queue_topology()
        full = simulate(topo, {"src": 3, "dst": 1}, duration=1_000.0, seed=3)
        warm = simulate(
            topo, {"src": 3, "dst": 1}, duration=1_000.0, seed=3,
            warmup=500.0,
        )
        assert warm.offered["src"] < full.offered["src"] + 1

    def test_negative_warmup_rejected(self):
        topo = one_queue_topology()
        with pytest.raises(SimulationError):
            simulate(topo, {"src": 1, "dst": 1}, warmup=-1.0)

    def test_bad_duration_rejected(self):
        topo = one_queue_topology()
        system = CommunicationSystem(topo, {"src": 1, "dst": 1})
        with pytest.raises(SimulationError):
            system.run(0.0)

    def test_buffer_accessor(self):
        topo = paper_figure1()
        caps = {c.name: 2 for c in sizing_clients(topo)}
        system = CommunicationSystem(topo, caps)
        assert system.buffer("p1").capacity == 2
        bridge_buf = client_name_for_bridge("b1", "f")
        assert system.buffer(bridge_buf).capacity == 2
        with pytest.raises(SimulationError):
            system.buffer("ghost")

    def test_loss_fraction_bounds(self):
        topo = single_bus(arrival_rate=3.0, service_rate=2.0)
        caps = {p: 1 for p in topo.processors}
        result = simulate(topo, caps, duration=2_000.0, seed=8)
        assert 0.0 < result.loss_fraction() < 1.0


class TestReplication:
    def test_replicate_count(self):
        topo = single_bus()
        caps = {p: 2 for p in topo.processors}
        summary = replicate(
            topo, caps, replications=4, duration=500.0, base_seed=0
        )
        assert summary.num_replications == 4

    def test_replications_independent(self):
        topo = single_bus(arrival_rate=2.0, service_rate=3.0)
        caps = {p: 2 for p in topo.processors}
        summary = replicate(
            topo, caps, replications=3, duration=1_000.0
        )
        losses = [r.total_lost for r in summary.results]
        assert len(set(losses)) > 1

    def test_mean_loss(self):
        topo = single_bus(arrival_rate=2.5, service_rate=2.0)
        caps = {p: 1 for p in topo.processors}
        summary = replicate(topo, caps, replications=3, duration=1_000.0)
        manual = np.mean([r.lost["p1"] for r in summary.results])
        assert summary.mean_loss("p1") == pytest.approx(manual)
        assert summary.mean_total_loss() > 0

    def test_std_total_loss(self):
        topo = single_bus(arrival_rate=2.0, service_rate=2.0)
        caps = {p: 1 for p in topo.processors}
        summary = replicate(topo, caps, replications=5, duration=500.0)
        assert summary.std_total_loss() >= 0.0

    def test_zero_replications_rejected(self):
        topo = single_bus()
        with pytest.raises(SimulationError):
            replicate(topo, {p: 1 for p in topo.processors}, replications=0)

    def test_empty_summary_rejected(self):
        with pytest.raises(SimulationError):
            ReplicationSummary([])
