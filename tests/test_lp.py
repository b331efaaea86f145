"""Tests for repro.core.lp — the occupation-measure LP."""

import numpy as np
import pytest

from repro.core.bus_model import (
    BUS_TIME,
    SPACE,
    BusClient,
    build_client_chain_ctmdp,
    build_joint_bus_ctmdp,
    bus_time_coefficients,
)
from repro.core.ctmdp import CTMDP
from repro.core.lp import AverageCostLP, BlockLP, ConstraintSpec
from repro.errors import InfeasibleError, SolverError
from repro.queueing.mm1k import MM1KQueue


def forced_serve_queue(lam=1.0, mu=2.0, k=3, weight=1.0):
    """A single-client bus where serving is the only action: an M/M/1/K."""
    client = BusClient("p", lam, mu, k, loss_weight=weight)
    model = CTMDP()
    for q in range(k + 1):
        loss = weight * lam if q == k else 0.0
        transitions = []
        if q < k:
            transitions.append((q + 1, lam))
        if q > 0:
            transitions.append((q - 1, mu))
        model.add_action(
            q, "serve", transitions, cost_rate=loss,
            constraint_rates={SPACE: float(q)},
        )
    return model, client


class TestUnconstrainedLP:
    def test_single_action_matches_mm1k_loss(self):
        lam, mu, k = 1.0, 2.0, 3
        model, _ = forced_serve_queue(lam, mu, k)
        solution = AverageCostLP(model).solve()
        expected = MM1KQueue(lam, mu, k).loss_rate()
        assert solution.objective == pytest.approx(expected, abs=1e-9)

    def test_occupation_sums_to_one(self):
        model, _ = forced_serve_queue()
        solution = AverageCostLP(model).solve()
        assert sum(solution.occupations[0].values()) == pytest.approx(1.0)

    def test_occupation_matches_mm1k_distribution(self):
        lam, mu, k = 1.5, 2.0, 4
        model, _ = forced_serve_queue(lam, mu, k)
        solution = AverageCostLP(model).solve()
        probs = MM1KQueue(lam, mu, k).state_probabilities()
        for q in range(k + 1):
            assert solution.occupations[0][(q, "serve")] == pytest.approx(
                probs[q], abs=1e-8
            )

    def test_joint_bus_prefers_cheaper_loss(self):
        # Two clients, one with much larger loss weight: the arbiter must
        # prioritise it, and the LP cost must beat the reversed priority.
        clients = [
            BusClient("hot", 1.0, 2.0, 2, loss_weight=10.0),
            BusClient("cold", 1.0, 2.0, 2, loss_weight=0.1),
        ]
        model = build_joint_bus_ctmdp(clients)
        solution = AverageCostLP(model).solve()
        # Deterministic "serve cold first whenever possible" policy:
        from repro.core.policy import StationaryPolicy

        worst = {}
        for state in model.states:
            actions = model.actions(state)
            if "cold" in actions:
                worst[state] = "cold"
            else:
                worst[state] = actions[0]
        worst_cost = StationaryPolicy.deterministic(
            model, worst
        ).average_cost_rate()
        assert solution.objective < worst_cost

    def test_lp_policy_cost_matches_objective(self):
        clients = [
            BusClient("a", 0.8, 2.0, 2),
            BusClient("b", 1.2, 2.5, 2),
        ]
        model = build_joint_bus_ctmdp(clients)
        solution = AverageCostLP(model).solve()
        achieved = solution.policies[0].average_cost_rate()
        assert achieved == pytest.approx(solution.objective, abs=1e-7)


class TestConstrainedLP:
    def test_space_constraint_binds(self):
        # Queue with slow (cheap) and fast (expensive) service.  An upper
        # bound on expected occupancy forces the fast action.
        lam, mu_slow, mu_fast, k = 2.0, 1.0, 6.0, 5
        model = CTMDP()
        for q in range(k + 1):
            arrivals = [(q + 1, lam)] if q < k else []
            if q == 0:
                model.add_action(
                    q, "wait", arrivals, cost_rate=0.0,
                    constraint_rates={SPACE: 0.0},
                )
                continue
            for name, mu, cost in (
                ("slow", mu_slow, 0.0),
                ("fast", mu_fast, 1.0),
            ):
                model.add_action(
                    q, name, arrivals + [(q - 1, mu)], cost_rate=cost,
                    constraint_rates={SPACE: float(q)},
                )
        unconstrained = AverageCostLP(model).solve()
        mean_q = unconstrained.constraint_values.get((0, SPACE))
        # Unconstrained optimum is all-slow (zero cost) -> high occupancy.
        slow_mean = sum(
            q * mass
            for (q, _a), mass in unconstrained.occupations[0].items()
        )
        bound = 0.5 * slow_mean
        solution = AverageCostLP(model).solve(
            constraints=[ConstraintSpec(SPACE, bound)]
        )
        achieved = solution.constraint_values[(0, SPACE)]
        assert achieved <= bound + 1e-8
        # Meeting the bound requires paying for fast service.
        assert solution.objective > 0.0

    def test_infeasible_constraint_raises(self):
        # Single action: the stationary law is fixed, so a bound below its
        # expected occupancy cannot be met.
        lam, mu, k = 5.0, 1.0, 4
        model, _ = forced_serve_queue(lam, mu, k)
        base = AverageCostLP(model).solve()
        mean_q = sum(
            q * mass for (q, _a), mass in base.occupations[0].items()
        )
        with pytest.raises(InfeasibleError):
            AverageCostLP(model).solve(
                constraints=[ConstraintSpec(SPACE, 0.01 * mean_q)]
            )

    def test_k_switching_bound_on_randomisation(self):
        # One constraint => optimal policy randomises in at most 1 state
        # (Feinberg 2002).  Use the decomposed client model where idling
        # is allowed, so the constraint genuinely trades off.
        client = BusClient("p", 1.0, 3.0, 4)
        model = build_client_chain_ctmdp(client)
        base = AverageCostLP(model).solve(
            constraints=[ConstraintSpec(BUS_TIME, 1.0)]
        )
        # Tighten bus time so the constraint binds.
        busy = base.constraint_values[(0, BUS_TIME)]
        solution = AverageCostLP(model).solve(
            constraints=[ConstraintSpec(BUS_TIME, 0.6 * busy)]
        )
        randomised = solution.policies[0].randomised_states()
        assert len(randomised) <= 1


class TestBlockLP:
    def test_two_independent_blocks_sum(self):
        m1, _ = forced_serve_queue(1.0, 2.0, 3)
        m2, _ = forced_serve_queue(2.0, 2.5, 4)
        separate = (
            AverageCostLP(m1).solve().objective
            + AverageCostLP(m2).solve().objective
        )
        block = BlockLP()
        block.add_block(m1)
        block.add_block(m2)
        joint = block.solve()
        assert joint.objective == pytest.approx(separate, abs=1e-9)
        assert len(joint.occupations) == 2
        assert len(joint.policies) == 2

    def test_block_weights_scale_objective(self):
        m1, _ = forced_serve_queue(1.0, 2.0, 3)
        block = BlockLP()
        block.add_block(m1, weight=3.0)
        base = AverageCostLP(m1).solve().objective
        assert block.solve().objective == pytest.approx(3.0 * base)

    def test_shared_bus_time_constraint(self):
        # Two decomposed clients sharing one bus: total serving time <= 1.
        c1 = BusClient("p1", 2.0, 2.5, 3)
        c2 = BusClient("p2", 2.0, 2.5, 3)
        m1 = build_client_chain_ctmdp(c1)
        m2 = build_client_chain_ctmdp(c2)
        block = BlockLP()
        block.add_block(m1)
        block.add_block(m2)
        block.add_shared_constraint(
            "bus",
            [bus_time_coefficients(m1), bus_time_coefficients(m2)],
            bound=1.0,
        )
        solution = block.solve()
        assert solution.constraint_values["bus"] <= 1.0 + 1e-8
        # Each client is overloaded (lambda ~ 0.8 mu); sharing must leave
        # some loss but less than not serving at all.
        assert 0.0 < solution.objective < 4.0

    def test_shared_budget_helper(self):
        c1 = BusClient("p1", 1.0, 2.0, 4)
        m1 = build_client_chain_ctmdp(c1)
        block = BlockLP()
        block.add_block(m1)
        block.add_shared_budget("budget", SPACE, bound=1.0)
        solution = block.solve()
        assert solution.constraint_values["budget"] <= 1.0 + 1e-8

    def test_empty_block_lp_rejected(self):
        with pytest.raises(SolverError, match="no blocks"):
            BlockLP().solve()

    def test_negative_weight_rejected(self):
        m1, _ = forced_serve_queue()
        with pytest.raises(SolverError, match="weight"):
            BlockLP().add_block(m1, weight=-1.0)

    def test_wrong_coefficient_count_rejected(self):
        m1, _ = forced_serve_queue()
        block = BlockLP()
        block.add_block(m1)
        with pytest.raises(SolverError, match="coefficient maps"):
            block.add_shared_constraint("x", [], 1.0)

    def test_unknown_pair_in_shared_constraint(self):
        m1, _ = forced_serve_queue()
        block = BlockLP()
        block.add_block(m1)
        block.add_shared_constraint("x", [{(99, "zzz"): 1.0}], 1.0)
        with pytest.raises(SolverError, match="unknown state-action"):
            block.solve()
