"""Tests for repro.queueing.markov_chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.queueing.markov_chain import (
    ContinuousTimeMarkovChain,
    uniformization_rate,
    uniformize,
    validate_generator,
)


def two_state_generator(a=2.0, b=3.0):
    return np.array([[-a, a], [b, -b]])


class TestValidateGenerator:
    def test_accepts_valid_generator(self):
        q = validate_generator(two_state_generator())
        assert q.shape == (2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ModelError, match="square"):
            validate_generator(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ModelError, match="at least one state"):
            validate_generator(np.zeros((0, 0)))

    def test_rejects_negative_off_diagonal(self):
        q = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(ModelError, match="negative off-diagonal"):
            validate_generator(q)

    def test_rejects_bad_row_sum(self):
        q = np.array([[-1.0, 2.0], [1.0, -1.0]])
        with pytest.raises(ModelError, match="sums to"):
            validate_generator(q)

    def test_returns_float_copy(self):
        q_int = np.array([[-1, 1], [2, -2]])
        q = validate_generator(q_int)
        assert q.dtype == float
        q[0, 0] = 99.0
        assert q_int[0, 0] == -1

    def test_accepts_absorbing_state(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        validate_generator(q)


class TestUniformization:
    def test_rate_covers_max_exit(self):
        q = two_state_generator(2.0, 5.0)
        rate = uniformization_rate(q)
        assert rate >= 5.0

    def test_zero_generator_gets_positive_rate(self):
        assert uniformization_rate(np.zeros((3, 3))) > 0

    def test_uniformized_matrix_is_stochastic(self):
        p, rate = uniformize(two_state_generator())
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_explicit_rate_respected(self):
        p, rate = uniformize(two_state_generator(1.0, 1.0), rate=10.0)
        assert rate == 10.0
        assert np.isclose(p[0, 0], 0.9)

    def test_too_small_rate_rejected(self):
        with pytest.raises(ModelError, match="below max exit rate"):
            uniformize(two_state_generator(2.0, 8.0), rate=4.0)

    def test_uniformized_stationary_matches_ctmc(self):
        q = two_state_generator(2.0, 3.0)
        p, _ = uniformize(q)
        chain = ContinuousTimeMarkovChain(q)
        pi = chain.stationary_distribution()
        assert np.allclose(pi @ p, pi, atol=1e-10)


class TestCTMCConstruction:
    def test_num_states(self):
        chain = ContinuousTimeMarkovChain(two_state_generator())
        assert chain.num_states == 2

    def test_default_labels(self):
        chain = ContinuousTimeMarkovChain(two_state_generator())
        assert chain.state_labels == [0, 1]

    def test_custom_labels(self):
        chain = ContinuousTimeMarkovChain(
            two_state_generator(), state_labels=["idle", "busy"]
        )
        assert chain.index_of("busy") == 1

    def test_wrong_label_count(self):
        with pytest.raises(ModelError, match="labels"):
            ContinuousTimeMarkovChain(two_state_generator(), state_labels=["x"])

    def test_duplicate_labels(self):
        with pytest.raises(ModelError, match="unique"):
            ContinuousTimeMarkovChain(
                two_state_generator(), state_labels=["x", "x"]
            )

    def test_unknown_label_lookup(self):
        chain = ContinuousTimeMarkovChain(two_state_generator())
        with pytest.raises(ModelError, match="unknown state label"):
            chain.index_of("nope")

    def test_exit_rate(self):
        chain = ContinuousTimeMarkovChain(two_state_generator(2.0, 3.0))
        assert chain.exit_rate(0) == pytest.approx(2.0)
        assert chain.exit_rate(1) == pytest.approx(3.0)


class TestStationary:
    def test_two_state_closed_form(self):
        a, b = 2.0, 3.0
        chain = ContinuousTimeMarkovChain(two_state_generator(a, b))
        pi = chain.stationary_distribution()
        assert pi[0] == pytest.approx(b / (a + b))
        assert pi[1] == pytest.approx(a / (a + b))

    def test_cached(self):
        chain = ContinuousTimeMarkovChain(two_state_generator())
        assert chain.stationary_distribution() is chain.stationary_distribution()

    def test_stationary_probability_by_label(self):
        chain = ContinuousTimeMarkovChain(
            two_state_generator(1.0, 1.0), state_labels=["a", "b"]
        )
        assert chain.stationary_probability("a") == pytest.approx(0.5)

    def test_expected_stationary(self):
        chain = ContinuousTimeMarkovChain(two_state_generator(1.0, 1.0))
        assert chain.expected_stationary([0.0, 10.0]) == pytest.approx(5.0)

    def test_expected_stationary_wrong_length(self):
        chain = ContinuousTimeMarkovChain(two_state_generator())
        with pytest.raises(ModelError, match="value vector"):
            chain.expected_stationary([1.0])

    def test_three_state_cycle(self):
        # Symmetric cycle: uniform stationary distribution.
        q = np.array(
            [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]
        )
        chain = ContinuousTimeMarkovChain(q)
        assert np.allclose(chain.stationary_distribution(), 1.0 / 3.0)

    def test_reducible_chain_rejected(self):
        # Two disconnected 2-state chains: stationary law not unique.
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 1.0
        q[2, 3] = q[3, 2] = 1.0
        np.fill_diagonal(q, -q.sum(axis=1))
        chain = ContinuousTimeMarkovChain(q)
        with pytest.raises(ModelError):
            chain.stationary_distribution()

    @given(
        a=st.floats(min_value=0.01, max_value=100.0),
        b=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_balance_two_state(self, a, b):
        chain = ContinuousTimeMarkovChain(two_state_generator(a, b))
        pi = chain.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        # Detailed balance holds for any two-state chain.
        assert pi[0] * a == pytest.approx(pi[1] * b, rel=1e-6)


class TestHittingTimes:
    def test_birth_death_hitting_time(self):
        # 3-state chain 0 <-> 1 <-> 2; hitting time of 2 from 0.
        lam, mu = 1.0, 2.0
        q = np.array(
            [
                [-lam, lam, 0.0],
                [mu, -(lam + mu), lam],
                [0.0, 0.0, 0.0],
            ]
        )
        chain = ContinuousTimeMarkovChain(q)
        h = chain.expected_hitting_times([2])
        # From 1: h1 = 1/(lam+mu) + mu/(lam+mu) h0 ; h0 = 1/lam + h1.
        h1 = (1.0 + mu / lam) / lam  # solving by hand: h1 = (1 + mu/lam)/lam
        # Derive properly: h0 = 1/lam + h1, h1 = 1/(l+m) + m/(l+m) h0
        # => h1 = (1/(l+m)) + (m/(l+m))(1/lam + h1)
        # => h1 (1 - m/(l+m)) = 1/(l+m) + m/(lam (l+m))
        # => h1 (l/(l+m)) = (lam + m)/(lam (l+m)) => h1 = (lam+m)/(lam*l)
        expected_h1 = (lam + mu) / (lam * lam)
        expected_h0 = 1.0 / lam + expected_h1
        assert h[1] == pytest.approx(expected_h1)
        assert h[0] == pytest.approx(expected_h0)
        assert h[2] == 0.0

    def test_empty_targets_rejected(self):
        chain = ContinuousTimeMarkovChain(two_state_generator())
        with pytest.raises(ModelError, match="non-empty"):
            chain.expected_hitting_times([])

    def test_all_states_targets(self):
        chain = ContinuousTimeMarkovChain(two_state_generator())
        assert np.allclose(chain.expected_hitting_times([0, 1]), 0.0)

    def test_unreachable_target(self):
        # State 1 absorbing, target state 0 unreachable from 1.
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        chain = ContinuousTimeMarkovChain(q)
        with pytest.raises(ModelError, match="singular|unreachable"):
            chain.expected_hitting_times([0])
