"""Tests for repro.core.policy."""

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.core.policy import StationaryPolicy, policy_from_occupation_measure
from repro.errors import PolicyError


def make_mdp():
    m = CTMDP()
    m.add_action("lo", "slow", [("hi", 1.0)], cost_rate=0.0)
    m.add_action("lo", "fast", [("hi", 5.0)], cost_rate=2.0)
    m.add_action("hi", "drain", [("lo", 3.0)], cost_rate=1.0,
                 constraint_rates={"load": 1.0})
    return m


class TestConstruction:
    def test_deterministic(self):
        m = make_mdp()
        pol = StationaryPolicy.deterministic(
            m, {"lo": "slow", "hi": "drain"}
        )
        assert pol.is_deterministic()
        assert pol.randomised_states() == []

    def test_uniform(self):
        m = make_mdp()
        pol = StationaryPolicy.uniform(m)
        assert pol.action_probabilities("lo") == {
            "slow": 0.5, "fast": 0.5
        }
        assert pol.randomised_states() == ["lo"]

    def test_missing_state_rejected(self):
        m = make_mdp()
        with pytest.raises(PolicyError, match="missing state"):
            StationaryPolicy(m, {"lo": {"slow": 1.0}})

    def test_unavailable_action_rejected(self):
        m = make_mdp()
        with pytest.raises(PolicyError, match="unavailable action"):
            StationaryPolicy(
                m, {"lo": {"drain": 1.0}, "hi": {"drain": 1.0}}
            )

    def test_bad_sum_rejected(self):
        m = make_mdp()
        with pytest.raises(PolicyError, match="sum to"):
            StationaryPolicy(
                m, {"lo": {"slow": 0.5}, "hi": {"drain": 1.0}}
            )

    def test_negative_prob_rejected(self):
        m = make_mdp()
        with pytest.raises(PolicyError, match="negative"):
            StationaryPolicy(
                m,
                {"lo": {"slow": 1.5, "fast": -0.5}, "hi": {"drain": 1.0}},
            )

    def test_unknown_state_query(self):
        m = make_mdp()
        pol = StationaryPolicy.uniform(m)
        with pytest.raises(PolicyError):
            pol.action_probabilities("zzz")


class TestEvaluation:
    def test_induced_generator_slow(self):
        m = make_mdp()
        pol = StationaryPolicy.deterministic(m, {"lo": "slow", "hi": "drain"})
        q = pol.induced_generator()
        assert q[0, 1] == pytest.approx(1.0)
        assert q[1, 0] == pytest.approx(3.0)
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_induced_generator_mixture(self):
        m = make_mdp()
        pol = StationaryPolicy(
            m,
            {"lo": {"slow": 0.5, "fast": 0.5}, "hi": {"drain": 1.0}},
        )
        q = pol.induced_generator()
        assert q[0, 1] == pytest.approx(3.0)  # 0.5*1 + 0.5*5

    def test_average_cost_closed_form(self):
        # slow policy: pi_lo = 3/4, pi_hi = 1/4 -> cost = 0.25 * 1.
        m = make_mdp()
        pol = StationaryPolicy.deterministic(m, {"lo": "slow", "hi": "drain"})
        assert pol.average_cost_rate() == pytest.approx(0.25)

    def test_occupation_measure_sums_to_one(self):
        m = make_mdp()
        pol = StationaryPolicy.uniform(m)
        x = pol.stationary_state_action()
        assert sum(x.values()) == pytest.approx(1.0)



class TestFromOccupation:
    def test_roundtrip(self):
        m = make_mdp()
        pol = StationaryPolicy(
            m,
            {"lo": {"slow": 0.3, "fast": 0.7}, "hi": {"drain": 1.0}},
        )
        x = pol.stationary_state_action()
        pol2 = policy_from_occupation_measure(m, x)
        probs = pol2.action_probabilities("lo")
        assert probs["slow"] == pytest.approx(0.3)
        assert probs["fast"] == pytest.approx(0.7)

    def test_zero_mass_state_fallback_first(self):
        m = make_mdp()
        x = {("hi", "drain"): 1.0}  # no mass on 'lo'
        pol = policy_from_occupation_measure(m, x, fallback="first")
        assert pol.action_probabilities("lo") == {"slow": 1.0}

    def test_zero_mass_state_fallback_uniform(self):
        m = make_mdp()
        x = {("hi", "drain"): 1.0}
        pol = policy_from_occupation_measure(m, x, fallback="uniform")
        assert pol.action_probabilities("lo")["slow"] == pytest.approx(0.5)

    def test_unknown_fallback(self):
        m = make_mdp()
        with pytest.raises(PolicyError, match="fallback"):
            policy_from_occupation_measure(m, {}, fallback="zzz")
