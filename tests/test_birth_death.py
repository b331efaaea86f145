"""Tests for repro.queueing.birth_death."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.queueing.birth_death import BirthDeathChain


class TestConstruction:
    def test_capacity_and_states(self):
        chain = BirthDeathChain([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert chain.capacity == 3
        assert chain.num_states == 4

    def test_mismatched_lengths(self):
        with pytest.raises(ModelError, match="birth rates vs"):
            BirthDeathChain([1.0], [1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ModelError, match="at least two states"):
            BirthDeathChain([], [])

    def test_negative_birth_rejected(self):
        with pytest.raises(ModelError, match="non-negative"):
            BirthDeathChain([-1.0], [1.0])

    def test_zero_death_rejected(self):
        with pytest.raises(ModelError, match="strictly positive"):
            BirthDeathChain([1.0], [0.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ModelError, match="one-dimensional"):
            BirthDeathChain([[1.0]], [[1.0]])


class TestStationary:
    def test_symmetric_rates_uniform(self):
        chain = BirthDeathChain([1.0] * 4, [1.0] * 4)
        assert np.allclose(chain.stationary_distribution(), 0.2)

    def test_mm1k_geometric_form(self):
        lam, mu, k = 1.0, 2.0, 5
        chain = BirthDeathChain([lam] * k, [mu] * k)
        pi = chain.stationary_distribution()
        rho = lam / mu
        expected = rho ** np.arange(k + 1)
        expected /= expected.sum()
        assert np.allclose(pi, expected)

    def test_matches_full_ctmc_solve(self):
        rng = np.random.default_rng(7)
        births = rng.uniform(0.5, 3.0, size=6)
        deaths = rng.uniform(0.5, 3.0, size=6)
        chain = BirthDeathChain(births, deaths)
        pi_product = chain.stationary_distribution()
        pi_ctmc = chain.to_ctmc().stationary_distribution()
        assert np.allclose(pi_product, pi_ctmc, atol=1e-9)

    def test_zero_birth_rate_truncates(self):
        chain = BirthDeathChain([1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        pi = chain.stationary_distribution()
        assert pi[2] == 0.0
        assert pi[3] == 0.0

    def test_extreme_rates_stable(self):
        chain = BirthDeathChain([1e6] * 10, [1e-3] * 10)
        pi = chain.stationary_distribution()
        assert np.isfinite(pi).all()
        assert pi.sum() == pytest.approx(1.0)
        assert pi[-1] == pytest.approx(1.0, abs=1e-6)

    @given(
        k=st.integers(min_value=1, max_value=12),
        lam=st.floats(min_value=0.05, max_value=20.0),
        mu=st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_detailed_balance(self, k, lam, mu):
        chain = BirthDeathChain([lam] * k, [mu] * k)
        pi = chain.stationary_distribution()
        for i in range(k):
            assert pi[i] * lam == pytest.approx(pi[i + 1] * mu, rel=1e-6)


class TestMetrics:
    def test_blocking_probability_is_top_state(self):
        chain = BirthDeathChain([2.0] * 3, [1.0] * 3)
        pi = chain.stationary_distribution()
        assert chain.blocking_probability() == pytest.approx(pi[-1])

    def test_quantile_extremes(self):
        chain = BirthDeathChain([1.0] * 4, [4.0] * 4)
        assert chain.quantile(1e-9) == 0
        assert chain.quantile(1.0) <= 4

    def test_quantile_validation(self):
        chain = BirthDeathChain([1.0], [1.0])
        with pytest.raises(ModelError):
            chain.quantile(0.0)
        with pytest.raises(ModelError):
            chain.quantile(1.5)

    def test_throughput_equals_death_flow(self):
        # In steady state, accepted birth flow equals death flow.
        chain = BirthDeathChain([2.0, 1.0, 0.5], [1.0, 1.5, 2.0])
        pi = chain.stationary_distribution()
        death_flow = sum(pi[i + 1] * chain.death_rates[i] for i in range(3))
        assert chain.throughput() == pytest.approx(death_flow)

    def test_loss_plus_throughput_equals_offered_for_constant_rates(self):
        lam = 2.0
        chain = BirthDeathChain([lam] * 5, [1.0] * 5)
        assert chain.throughput() + chain.loss_rate() == pytest.approx(lam)

    @given(
        k=st.integers(min_value=1, max_value=10),
        lam=st.floats(min_value=0.1, max_value=10.0),
        mu=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_flow_conservation(self, k, lam, mu):
        chain = BirthDeathChain([lam] * k, [mu] * k)
        assert chain.throughput() + chain.loss_rate() == pytest.approx(
            lam, rel=1e-9
        )
