"""Tests for repro.core.kswitching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kswitching import (
    ClientDemand,
    allocate_greedy,
    switching_mixture,
)
from repro.errors import InfeasibleError, PolicyError


def demand(name, tail_mass, rate=1.0, weight=1.0, max_size=10**9):
    """Demand whose marginal puts ``tail_mass`` deep in the queue."""
    p = np.array([1.0 - tail_mass, tail_mass / 2, tail_mass / 4, tail_mass / 4])
    return ClientDemand(
        name=name, marginal=p, arrival_rate=rate, loss_weight=weight,
        max_size=max_size,
    )


class TestClientDemand:
    def test_marginal_normalised(self):
        d = ClientDemand("a", np.array([2.0, 2.0]), arrival_rate=1.0)
        assert d.marginal.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(PolicyError):
            ClientDemand("a", np.array([1.0]), arrival_rate=1.0)
        with pytest.raises(PolicyError):
            ClientDemand("a", np.array([[0.5, 0.5]]), arrival_rate=1.0)
        with pytest.raises(PolicyError):
            ClientDemand("a", np.array([0.5, -0.5]), arrival_rate=1.0)
        with pytest.raises(PolicyError):
            ClientDemand("a", np.array([0.0, 0.0]), arrival_rate=1.0)
        with pytest.raises(PolicyError):
            ClientDemand("a", np.array([0.5, 0.5]), arrival_rate=-1.0)
        with pytest.raises(PolicyError):
            ClientDemand("a", np.array([0.5, 0.5]), arrival_rate=1.0,
                         loss_weight=-1.0)
        with pytest.raises(PolicyError):
            ClientDemand("a", np.array([0.5, 0.5]), arrival_rate=1.0,
                         max_size=0)

    def test_tail(self):
        d = ClientDemand("a", np.array([0.5, 0.3, 0.2]), arrival_rate=1.0)
        assert d.tail(0) == 1.0
        assert d.tail(1) == pytest.approx(0.5)
        assert d.tail(2) == pytest.approx(0.2)
        assert d.tail(3) == 0.0

    def test_slot_value_scales(self):
        d1 = demand("a", 0.4, rate=1.0, weight=1.0)
        d2 = demand("b", 0.4, rate=2.0, weight=3.0)
        assert d2.slot_value(1) == pytest.approx(6.0 * d1.slot_value(1))

    def test_truncated_loss_matches_mm1k(self):
        # For a geometric (M/M/1-shaped) marginal, the truncated-law loss
        # must equal the exact M/M/1/K loss rate at every capacity.
        from repro.queueing.mm1k import MM1KQueue

        lam, mu, depth = 1.2, 2.0, 12
        rho = lam / mu
        marginal = rho ** np.arange(depth + 1)
        d = ClientDemand(
            "q", marginal / marginal.sum(), arrival_rate=lam
        )
        for k in range(1, 6):
            expected = MM1KQueue(lam, mu, k).loss_rate()
            assert d.truncated_loss(k) == pytest.approx(expected, rel=1e-9)

    def test_truncated_loss_monotone_decreasing(self):
        d = demand("a", 0.5)
        losses = [d.truncated_loss(k) for k in range(5)]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_truncated_loss_validation(self):
        with pytest.raises(PolicyError):
            demand("a", 0.5).truncated_loss(-1)

    def test_slot_value_nonnegative(self):
        d = demand("a", 0.7)
        assert all(d.slot_value(k) >= 0.0 for k in range(6))


class TestAllocateGreedy:
    def test_sums_to_budget(self):
        demands = [demand("a", 0.5), demand("b", 0.1), demand("c", 0.3)]
        sizes = allocate_greedy(demands, 10)
        assert sum(sizes.values()) == 10

    def test_min_size_respected(self):
        demands = [demand("a", 0.9), demand("b", 0.0)]
        sizes = allocate_greedy(demands, 6)
        assert sizes["b"] >= 1

    def test_heavier_tail_gets_more(self):
        demands = [demand("deep", 0.6), demand("shallow", 0.05)]
        sizes = allocate_greedy(demands, 5)
        assert sizes["deep"] > sizes["shallow"]

    def test_weight_steers_allocation(self):
        demands = [
            demand("vip", 0.3, weight=10.0),
            demand("std", 0.3, weight=1.0),
        ]
        sizes = allocate_greedy(demands, 5)
        assert sizes["vip"] > sizes["std"]

    def test_max_size_capped(self):
        demands = [demand("a", 0.9, max_size=2), demand("b", 0.01)]
        sizes = allocate_greedy(demands, 8)
        assert sizes["a"] <= 2
        assert sum(sizes.values()) == 8

    def test_budget_below_minimum_rejected(self):
        demands = [demand("a", 0.5), demand("b", 0.5)]
        with pytest.raises(InfeasibleError):
            allocate_greedy(demands, 1)

    def test_budget_above_caps_rejected(self):
        demands = [demand("a", 0.5, max_size=2), demand("b", 0.5, max_size=2)]
        with pytest.raises(InfeasibleError):
            allocate_greedy(demands, 5)

    def test_no_clients_rejected(self):
        with pytest.raises(PolicyError):
            allocate_greedy([], 4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(PolicyError):
            allocate_greedy([demand("a", 0.1), demand("a", 0.2)], 4)

    def test_deterministic(self):
        demands = [demand("a", 0.3), demand("b", 0.3), demand("c", 0.3)]
        s1 = allocate_greedy(demands, 9)
        s2 = allocate_greedy(demands, 9)
        assert s1 == s2

    @given(
        budget=st.integers(min_value=3, max_value=40),
        t1=st.floats(min_value=0.0, max_value=0.9),
        t2=st.floats(min_value=0.0, max_value=0.9),
        t3=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_budget_exact_and_min_respected(self, budget, t1, t2, t3):
        demands = [
            demand("a", t1), demand("b", t2), demand("c", t3),
        ]
        sizes = allocate_greedy(demands, budget)
        assert sum(sizes.values()) == budget
        assert all(v >= 1 for v in sizes.values())

    @given(budget=st.integers(min_value=4, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_property_monotone_in_budget(self, budget):
        demands = [demand("a", 0.5), demand("b", 0.2)]
        small = allocate_greedy(demands, budget)
        large = allocate_greedy(demands, budget + 1)
        # Greedy water-filling never shrinks anyone when budget grows.
        assert all(large[k] >= small[k] for k in small)


class TestSwitchingMixture:
    def test_integer_budget_degenerates(self):
        demands = [demand("a", 0.4), demand("b", 0.2)]
        mix = switching_mixture(demands, 6.0)
        assert mix.probability == 0.0
        assert mix.low == mix.high

    def test_fractional_budget_mixes(self):
        demands = [demand("a", 0.4), demand("b", 0.2)]
        mix = switching_mixture(demands, 6.3)
        assert mix.probability == pytest.approx(0.3)
        assert sum(mix.low.values()) == 6
        assert sum(mix.high.values()) == 7

    def test_invalid_budget(self):
        with pytest.raises(PolicyError):
            switching_mixture([demand("a", 0.1)], 0.0)
