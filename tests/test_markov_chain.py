"""Tests for repro.queueing.markov_chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.queueing.markov_chain import (
    ContinuousTimeMarkovChain,
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
