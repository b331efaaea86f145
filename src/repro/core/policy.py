"""Stationary (possibly randomised) policies for CTMDPs.

The occupation-measure LP of :mod:`repro.core.lp` returns a randomised
stationary policy: in each state the arbiter picks an action according to
a fixed distribution.  Feinberg 2002 shows that optimal policies for a
CTMDP with ``K`` constraints can be chosen to randomise in at most ``K``
states ("K-switching"); :meth:`StationaryPolicy.randomised_states` exposes
exactly which states those are so experiments can verify the bound.

The module also evaluates a fixed policy exactly: fixing the policy turns
the CTMDP into a CTMC whose stationary law yields the long-run cost and
constraint rates.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.core.ctmdp import CTMDP, Action, State
from repro.errors import ModelError, PolicyError
from repro.queueing.markov_chain import ContinuousTimeMarkovChain


class StationaryPolicy:
    """A stationary randomised policy ``phi(a | s)``.

    Parameters
    ----------
    model:
        The CTMDP the policy is defined on.
    distributions:
        Mapping from state to a mapping from action to probability.  Each
        state's probabilities must sum to one over a subset of the state's
        available actions.
    """

    def __init__(
        self,
        model: CTMDP,
        distributions: Dict[State, Dict[Action, float]],
    ) -> None:
        model.validate()
        self.model = model
        self._dist: Dict[State, Dict[Action, float]] = {}
        for state in model.states:
            if state not in distributions:
                raise PolicyError(f"policy missing state {state!r}")
            dist = distributions[state]
            available = set(model.actions(state))
            total = 0.0
            cleaned: Dict[Action, float] = {}
            for action, prob in dist.items():
                if action not in available:
                    raise PolicyError(
                        f"policy uses unavailable action {action!r} "
                        f"in state {state!r}"
                    )
                if prob < -1e-12:
                    raise PolicyError(
                        f"negative probability {prob} for {action!r} "
                        f"in state {state!r}"
                    )
                prob = max(prob, 0.0)
                if prob > 0.0:
                    cleaned[action] = prob
                total += prob
            if abs(total - 1.0) > 1e-6:
                raise PolicyError(
                    f"probabilities in state {state!r} sum to {total:.6f}"
                )
            # Renormalise away round-off.
            self._dist[state] = {a: p / total for a, p in cleaned.items()}

    # ------------------------------------------------------------------

    @classmethod
    def deterministic(
        cls, model: CTMDP, choice: Dict[State, Action]
    ) -> "StationaryPolicy":
        """Build a deterministic policy from a state -> action map."""
        return cls(
            model, {s: {a: 1.0} for s, a in choice.items()}
        )

    @classmethod
    def uniform(cls, model: CTMDP) -> "StationaryPolicy":
        """The uniform-randomisation policy (useful as a test baseline)."""
        model.validate()
        dists = {}
        for s in model.states:
            actions = model.actions(s)
            dists[s] = {a: 1.0 / len(actions) for a in actions}
        return cls(model, dists)

    # ------------------------------------------------------------------

    def action_probabilities(self, state: State) -> Dict[Action, float]:
        """Distribution over actions in a state (only positive entries)."""
        try:
            return dict(self._dist[state])
        except KeyError:
            raise PolicyError(f"unknown state {state!r}") from None

    def is_deterministic(self) -> bool:
        """True if every state has a single action with probability one."""
        return all(len(d) == 1 for d in self._dist.values())

    def randomised_states(self, tol: float = 1e-9) -> List[State]:
        """States in which the policy genuinely randomises.

        Feinberg 2002: for ``K`` constraints an optimal policy exists that
        randomises in at most ``K`` states.  The sizing pipeline asserts
        this bound on the LP solution.
        """
        return [
            s
            for s, dist in self._dist.items()
            if sum(1 for p in dist.values() if p > tol) > 1
        ]

    # ------------------------------------------------------------------

    def induced_generator(self) -> np.ndarray:
        """Generator of the CTMC obtained by fixing this policy."""
        n = self.model.num_states
        q = np.zeros((n, n))
        for state in self.model.states:
            i = self.model.state_index(state)
            for action, prob in self._dist[state].items():
                for t in self.model.transitions(state, action):
                    j = self.model.state_index(t.target)
                    q[i, j] += prob * t.rate
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    def induced_chain(self) -> ContinuousTimeMarkovChain:
        """The induced CTMC with the model's state labels."""
        return ContinuousTimeMarkovChain(
            self.induced_generator(), state_labels=self.model.states
        )

    def stationary_state_action(self) -> Dict[Tuple[State, Action], float]:
        """Occupation measure ``x(s, a) = pi(s) phi(a|s)`` of this policy."""
        pi = self.induced_chain().stationary_distribution()
        x: Dict[Tuple[State, Action], float] = {}
        for state in self.model.states:
            i = self.model.state_index(state)
            for action, prob in self._dist[state].items():
                x[(state, action)] = float(pi[i] * prob)
        return x

    def average_cost_rate(self) -> float:
        """Long-run average cost per unit time under this policy."""
        x = self.stationary_state_action()
        return sum(
            prob * self.model.cost_rate(s, a) for (s, a), prob in x.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "deterministic" if self.is_deterministic() else "randomised"
        return f"StationaryPolicy({kind}, states={self.model.num_states})"


def policy_from_occupation_measure(
    model: CTMDP,
    x: Dict[Tuple[State, Action], float],
    fallback: str = "first",
) -> StationaryPolicy:
    """Extract ``phi(a|s) = x(s,a) / sum_a x(s,a)`` from an occupation measure.

    States with (numerically) zero visitation get a fallback action: the
    first available one (``fallback='first'``) or a uniform distribution
    (``fallback='uniform'``).  Such states are never visited under the
    optimal stationary law, so the choice does not affect average costs on
    the recurrent class, but the simulator still needs a defined action
    everywhere.
    """
    if fallback not in ("first", "uniform"):
        raise PolicyError(f"unknown fallback {fallback!r}")
    model.validate()
    dists: Dict[State, Dict[Action, float]] = {}
    for state in model.states:
        actions = model.actions(state)
        mass = {a: max(x.get((state, a), 0.0), 0.0) for a in actions}
        total = sum(mass.values())
        if total > 1e-12:
            dists[state] = {a: m / total for a, m in mass.items() if m > 0}
        elif fallback == "first":
            dists[state] = {actions[0]: 1.0}
        else:
            dists[state] = {a: 1.0 / len(actions) for a in actions}
    return StationaryPolicy(model, dists)
