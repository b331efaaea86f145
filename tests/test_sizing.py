"""Tests for repro.core.sizing — the end-to-end pipeline."""

import numpy as np
import pytest

from repro.arch.netproc import network_processor
from repro.arch.templates import amba_like, paper_figure1, single_bus
from repro.core.sizing import BufferAllocation, BufferSizer, SizingResult
from repro.errors import InfeasibleError, SolverError
from repro.sim.runner import simulate


class TestBufferAllocation:
    def test_total(self):
        alloc = BufferAllocation(sizes={"a": 3, "b": 5}, budget=8)
        assert alloc.total == 8

    def test_negative_rejected(self):
        with pytest.raises(SolverError):
            BufferAllocation(sizes={"a": -1}, budget=1)

    def test_as_capacities_copy(self):
        alloc = BufferAllocation(sizes={"a": 2}, budget=2)
        caps = alloc.as_capacities()
        caps["a"] = 99
        assert alloc.sizes["a"] == 2


class TestBufferSizerValidation:
    def test_bad_budget(self):
        with pytest.raises(SolverError):
            BufferSizer(total_budget=0)

    def test_bad_capacity_cap(self):
        sizer = BufferSizer(total_budget=8, capacity_cap=0)
        with pytest.raises(SolverError):
            sizer.size(single_bus())

    def test_budget_below_min_sizes(self):
        sizer = BufferSizer(total_budget=2)
        with pytest.raises(InfeasibleError):
            sizer.size(single_bus(num_processors=4))


class TestSingleBusSizing:
    def test_budget_exact(self):
        topo = single_bus(num_processors=4)
        result = BufferSizer(total_budget=12).size(topo)
        assert result.allocation.total == 12
        assert set(result.allocation.sizes) == set(topo.processors)

    def test_asymmetric_traffic_gets_asymmetric_buffers(self):
        from repro.arch.topology import Topology

        topo = Topology("asym")
        topo.add_bus("x")
        topo.add_processor("hot", "x", service_rate=4.0)
        topo.add_processor("cold", "x", service_rate=4.0)
        topo.add_processor("sink", "x", service_rate=4.0)
        topo.add_poisson_flow("h", "hot", "sink", 3.0)
        topo.add_poisson_flow("c", "cold", "sink", 0.2)
        result = BufferSizer(total_budget=12).size(topo)
        assert result.allocation.sizes["hot"] > result.allocation.sizes["cold"]

    def test_marginals_are_distributions(self):
        topo = single_bus()
        result = BufferSizer(total_budget=10).size(topo)
        for name, marg in result.marginals.items():
            assert marg.sum() == pytest.approx(1.0)
            assert (marg >= -1e-12).all()

    def test_expected_loss_nonnegative(self):
        topo = single_bus(arrival_rate=2.0, service_rate=3.0)
        result = BufferSizer(total_budget=8).size(topo)
        assert result.expected_loss_rate >= 0.0


class TestBridgedSizing:
    def test_paper_figure1_runs_and_inserts_bridge_buffers(self):
        topo = paper_figure1()
        result = BufferSizer(total_budget=24).size(topo)
        assert result.allocation.total == 24
        bridge_buffers = [
            n for n in result.allocation.sizes if "@" in n
        ]
        assert bridge_buffers  # buffers were inserted for bridges
        assert all(
            result.allocation.sizes[n] >= 1 for n in bridge_buffers
        )

    def test_fixed_point_converges(self):
        topo = paper_figure1()
        result = BufferSizer(total_budget=24).size(topo)
        assert result.fixed_point_iterations < 25

    @pytest.mark.parametrize("warm", [True, False])
    def test_unconverged_runs_are_counted(self, monkeypatch, warm):
        from repro import obs
        from repro.core.lp import BlockProgram

        if not warm:
            # The cold-solved loop, the sizing oracle, counts too.
            solve = BlockProgram.solve
            monkeypatch.setattr(
                BlockProgram,
                "solve",
                lambda self, *a, **k: solve(self, *a, **dict(k, warm=False)),
            )
        obs.reset()
        obs.enable_metrics()
        try:
            converged = BufferSizer(total_budget=14).size(amba_like())
            assert converged.converged
            assert obs.registry().counters_snapshot().get(
                "solver.fixed_point.unconverged", 0
            ) == 0
            capped = BufferSizer(
                total_budget=14, max_fixed_point_iterations=1
            ).size(amba_like())
            assert not capped.converged
            counters = obs.registry().counters_snapshot()
            assert counters["solver.fixed_point.unconverged"] == 1
        finally:
            obs.reset()

    def test_blocking_probabilities_valid(self):
        topo = amba_like()
        result = BufferSizer(total_budget=16).size(topo)
        for name, b in result.blocking.items():
            assert 0.0 <= b <= 1.0

    def test_allocation_feeds_simulator(self):
        topo = paper_figure1()
        result = BufferSizer(total_budget=24).size(topo)
        sim_result = simulate(
            topo, result.allocation.as_capacities(), duration=2_000.0, seed=1
        )
        assert sim_result.total_offered > 0

    def test_larger_budget_never_increases_predicted_loss(self):
        topo = amba_like()
        small = BufferSizer(total_budget=10, capacity_cap=6).size(topo)
        large = BufferSizer(total_budget=20, capacity_cap=6).size(topo)
        assert (
            large.predicted_total_loss_rate()
            <= small.predicted_total_loss_rate() + 1e-6
        )

    def test_predicted_loss_bounded_by_offered(self):
        topo = amba_like()
        result = BufferSizer(total_budget=12).size(topo)
        predicted = result.predicted_total_loss_rate()
        assert 0.0 <= predicted <= topo.total_offered_rate()


class TestDecomposedPath:
    def test_netproc_uses_decomposed_models(self):
        # 17 processors + bridge buffers with a joint lattice would be
        # astronomically large; force the chain path with a low limit.
        topo = network_processor()
        sizer = BufferSizer(
            total_budget=60, capacity_cap=6, joint_state_limit=100
        )
        result = sizer.size(topo)
        assert result.allocation.total == 60
        assert len(result.allocation.sizes) >= 17

    def test_joint_and_decomposed_agree_roughly(self):
        # On a small bridged system both paths must produce allocations
        # with similar totals per subsystem (not identical — the
        # decomposed model is a relaxation).
        topo = amba_like()
        joint = BufferSizer(
            total_budget=16, capacity_cap=5, joint_state_limit=10**9
        ).size(topo)
        decomposed = BufferSizer(
            total_budget=16, capacity_cap=5, joint_state_limit=1
        ).size(topo)
        assert joint.allocation.total == decomposed.allocation.total == 16
        # The heaviest client should match between the two paths.
        heavy_joint = max(
            joint.allocation.sizes, key=joint.allocation.sizes.get
        )
        assert decomposed.allocation.sizes[heavy_joint] >= 2
