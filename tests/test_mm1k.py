"""Tests for repro.queueing.mm1k."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.queueing.mm1k import MM1KQueue


class TestMM1KValidation:
    def test_rejects_bad_arrival(self):
        with pytest.raises(ModelError):
            MM1KQueue(0.0, 1.0, 3)

    def test_rejects_bad_service(self):
        with pytest.raises(ModelError):
            MM1KQueue(1.0, -1.0, 3)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ModelError):
            MM1KQueue(1.0, 1.0, 0)


class TestMM1KClosedForm:
    def test_rho(self):
        q = MM1KQueue(2.0, 4.0, 3)
        assert q.rho == pytest.approx(0.5)

    def test_state_probabilities_sum_to_one(self):
        q = MM1KQueue(3.0, 2.0, 7)
        assert q.state_probabilities().sum() == pytest.approx(1.0)

    def test_rho_one_uniform(self):
        q = MM1KQueue(2.0, 2.0, 4)
        assert np.allclose(q.state_probabilities(), 0.2)

    def test_blocking_k1_closed_form(self):
        # M/M/1/1 blocking = E/(1+E), E the offered load.
        q = MM1KQueue(3.0, 2.0, 1)
        e = 1.5
        assert q.blocking_probability() == pytest.approx(e / (1 + e))

    def test_matches_birth_death(self):
        q = MM1KQueue(1.7, 2.3, 6)
        bd = q.to_birth_death()
        assert np.allclose(
            q.state_probabilities(), bd.stationary_distribution()
        )
        assert q.blocking_probability() == pytest.approx(
            bd.blocking_probability()
        )

    def test_loss_rate_and_carried_rate(self):
        q = MM1KQueue(2.0, 1.0, 4)
        assert q.loss_rate() + q.carried_rate() == pytest.approx(2.0)

    def test_carried_equals_service_flow(self):
        q = MM1KQueue(2.0, 3.0, 5)
        # Carried rate equals mu * P(server busy) in steady state.
        busy = 1.0 - q.state_probabilities()[0]
        assert q.carried_rate() == pytest.approx(3.0 * busy)

    def test_mean_number_monotone_in_load(self):
        low = MM1KQueue(0.5, 1.0, 5).mean_number_in_system()
        high = MM1KQueue(2.0, 1.0, 5).mean_number_in_system()
        assert high > low

    def test_sojourn_time_littles_law(self):
        q = MM1KQueue(1.0, 2.0, 5)
        w = q.mean_sojourn_time()
        assert w * q.carried_rate() == pytest.approx(q.mean_number_in_system())

    def test_waiting_time_below_sojourn(self):
        q = MM1KQueue(1.0, 2.0, 5)
        assert 0.0 <= q.mean_waiting_time() < q.mean_sojourn_time()

    @given(
        lam=st.floats(min_value=0.05, max_value=10.0),
        mu=st.floats(min_value=0.05, max_value=10.0),
        k=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_blocking_in_unit_interval(self, lam, mu, k):
        q = MM1KQueue(lam, mu, k)
        b = q.blocking_probability()
        assert 0.0 < b < 1.0

    @given(
        lam=st.floats(min_value=0.05, max_value=5.0),
        mu=st.floats(min_value=0.05, max_value=5.0),
        k=st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_blocking_decreases_with_capacity(self, lam, mu, k):
        b1 = MM1KQueue(lam, mu, k).blocking_probability()
        b2 = MM1KQueue(lam, mu, k + 1).blocking_probability()
        assert b2 <= b1 + 1e-12

