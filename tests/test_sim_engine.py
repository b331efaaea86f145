"""Tests for repro.sim.engine, buffer, packet, monitor, arbiter."""

import numpy as np
import pytest

from repro.errors import PolicyError, SimulationError
from repro.sim.arbiter import (
    FixedPriorityArbiter,
    LongestQueueArbiter,
    RoundRobinArbiter,
    WeightedRandomArbiter,
    make_arbiter,
)
from repro.sim.buffer import FiniteBuffer
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.sim.packet import Hop, Packet


def make_packet(pid=1, client="p", created=0.0):
    return Packet(
        packet_id=pid,
        flow="f",
        source="p",
        destination="q",
        hops=(Hop(0, client, 1.0),),
        created_at=created,
    )


class TestSimulator:
    def test_events_run_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_ties_break_by_insertion(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run_until(2.0)
        assert order == ["first", "second"]

    def test_events_beyond_horizon_not_run(self):
        sim = Simulator()
        ran = []
        sim.schedule(5.0, lambda: ran.append(1))
        sim.run_until(4.0)
        assert ran == []
        assert sim.pending_events == 1

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_end_time_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_cancel(self):
        sim = Simulator()
        ran = []
        eid = sim.schedule(1.0, lambda: ran.append(1))
        sim.cancel(eid)
        sim.run_until(2.0)
        assert ran == []

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(1.5, second)

        def second():
            times.append(sim.now)

        sim.schedule(1.0, first)
        sim.run_until(5.0)
        assert times == [1.0, 2.5]

    def test_step(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, lambda: ran.append(1))
        assert sim.step() is True
        assert ran == [1]
        assert sim.step() is False


class TestFiniteBuffer:
    def test_offer_and_loss(self):
        buf = FiniteBuffer("b", 2)
        assert buf.offer(make_packet(1), 0.0)
        assert buf.offer(make_packet(2), 0.0)
        assert not buf.offer(make_packet(3), 0.0)
        assert buf.offered == 3
        assert buf.accepted == 2
        assert buf.lost == 1

    def test_zero_capacity_loses_everything(self):
        buf = FiniteBuffer("b", 0)
        assert not buf.offer(make_packet(), 0.0)
        assert buf.lost == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(SimulationError):
            FiniteBuffer("b", -1)

    def test_fifo_order(self):
        buf = FiniteBuffer("b", 3)
        for i in range(3):
            buf.offer(make_packet(i), float(i))
        assert buf.pop(3.0).packet_id == 0
        assert buf.pop(3.0).packet_id == 1

    def test_pop_empty_rejected(self):
        buf = FiniteBuffer("b", 1)
        with pytest.raises(SimulationError):
            buf.pop(0.0)

    def test_peek_does_not_remove(self):
        buf = FiniteBuffer("b", 1)
        buf.offer(make_packet(7), 0.0)
        assert buf.peek().packet_id == 7
        assert buf.occupancy == 1

    def test_mean_occupancy(self):
        buf = FiniteBuffer("b", 5)
        buf.offer(make_packet(1), 0.0)
        buf.offer(make_packet(2), 5.0)
        # occupancy: 1 on [0,5), 2 on [5,10) => area 5 + 10 = 15.
        assert buf.mean_occupancy(10.0) == pytest.approx(1.5)

    def test_enqueued_at_stamped(self):
        buf = FiniteBuffer("b", 1)
        p = make_packet()
        buf.offer(p, 3.25)
        assert p.enqueued_at == 3.25


class TestPacket:
    def test_hop_progression(self):
        p = Packet(
            packet_id=1, flow="f", source="a", destination="b",
            hops=(Hop(0, "a", 1.0), Hop(1, "br@x", 2.0)),
            created_at=0.0,
        )
        assert not p.is_last_hop
        assert p.current_hop.client == "a"
        p.advance()
        assert p.is_last_hop
        assert p.current_hop.client == "br@x"


class TestMonitor:
    def test_loss_attribution(self):
        m = Monitor()
        p = make_packet()
        m.record_offered(p)
        m.record_loss(p)
        assert m.lost["p"] == 1
        assert m.total_lost() == 1
        assert m.total_offered() == 1

    def test_timeout_counts_as_loss(self):
        m = Monitor()
        p = make_packet()
        m.record_timeout(p)
        assert m.timed_out["p"] == 1
        assert m.lost["p"] == 1

    def test_waiting_time(self):
        m = Monitor()
        p = make_packet()
        p.enqueued_at = 1.0
        m.record_service_start(p, 3.0)
        assert m.mean_waiting_time() == pytest.approx(2.0)

    def test_mean_end_to_end(self):
        m = Monitor()
        p = make_packet(created=1.0)
        m.record_delivery(p, 4.0)
        assert m.mean_end_to_end() == pytest.approx(3.0)

    def test_empty_means_zero(self):
        m = Monitor()
        assert m.mean_waiting_time() == 0.0
        assert m.mean_end_to_end() == 0.0



def buffers_with_occupancy(*counts):
    buffers = []
    for i, count in enumerate(counts):
        buf = FiniteBuffer(f"c{i}", 10)
        for j in range(count):
            buf.offer(make_packet(j, client=f"c{i}"), 0.0)
        buffers.append(buf)
    return buffers


class TestArbiters:
    def test_fixed_priority(self):
        rng = np.random.default_rng(0)
        arb = FixedPriorityArbiter()
        buffers = buffers_with_occupancy(0, 2, 1)
        assert arb.grant(buffers, 0.0, rng) == 1

    def test_fixed_priority_all_empty(self):
        rng = np.random.default_rng(0)
        assert FixedPriorityArbiter().grant(
            buffers_with_occupancy(0, 0), 0.0, rng
        ) is None

    def test_round_robin_cycles(self):
        rng = np.random.default_rng(0)
        arb = RoundRobinArbiter()
        buffers = buffers_with_occupancy(1, 1, 1)
        grants = [arb.grant(buffers, 0.0, rng) for _ in range(4)]
        assert grants == [0, 1, 2, 0]

    def test_round_robin_skips_empty(self):
        rng = np.random.default_rng(0)
        arb = RoundRobinArbiter()
        buffers = buffers_with_occupancy(1, 0, 1)
        grants = [arb.grant(buffers, 0.0, rng) for _ in range(3)]
        assert grants == [0, 2, 0]

    def test_longest_queue(self):
        rng = np.random.default_rng(0)
        buffers = buffers_with_occupancy(1, 3, 2)
        assert LongestQueueArbiter().grant(buffers, 0.0, rng) == 1

    def test_longest_queue_empty(self):
        rng = np.random.default_rng(0)
        assert LongestQueueArbiter().grant(
            buffers_with_occupancy(0, 0), 0.0, rng
        ) is None

    def test_weighted_random_respects_weights(self):
        rng = np.random.default_rng(42)
        arb = WeightedRandomArbiter({"c0": 0.0, "c1": 1.0})
        buffers = buffers_with_occupancy(5, 5)
        grants = {arb.grant(buffers, 0.0, rng) for _ in range(50)}
        assert grants == {1}

    def test_weighted_random_zero_weights_fall_back(self):
        rng = np.random.default_rng(42)
        arb = WeightedRandomArbiter({"c0": 0.0, "c1": 0.0})
        buffers = buffers_with_occupancy(1, 1)
        assert arb.grant(buffers, 0.0, rng) in (0, 1)

    def test_weighted_random_negative_rejected(self):
        with pytest.raises(PolicyError):
            WeightedRandomArbiter({"x": -1.0})

    def test_make_arbiter(self):
        assert isinstance(make_arbiter("round_robin"), RoundRobinArbiter)
        assert isinstance(
            make_arbiter("weighted_random", weights={"a": 1.0}),
            WeightedRandomArbiter,
        )
        with pytest.raises(PolicyError, match="unknown arbiter"):
            make_arbiter("zzz")
