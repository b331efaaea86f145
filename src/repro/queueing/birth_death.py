"""Birth-death chains with product-form stationary distributions.

A birth-death chain on ``0..K`` moves up with rate ``birth[i]`` (from state
``i`` to ``i+1``) and down with rate ``death[i]`` (from ``i`` to ``i-1``).
Every finite-buffer queue in this library — each processor's buffer viewed
in isolation, and each decomposed per-client model in
:mod:`repro.core.bus_model` — is a birth-death chain, so this module is the
workhorse of the analytic side.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.queueing.markov_chain import ContinuousTimeMarkovChain


class BirthDeathChain:
    """A finite birth-death chain on states ``0..K``.

    Parameters
    ----------
    birth_rates:
        ``birth_rates[i]`` is the rate from state ``i`` to ``i + 1``;
        length ``K`` (no birth out of state ``K``).
    death_rates:
        ``death_rates[i]`` is the rate from state ``i + 1`` to ``i``;
        length ``K``.  All death rates must be strictly positive so the
        chain is irreducible whenever the corresponding birth rate chain
        reaches that level.
    """

    def __init__(
        self,
        birth_rates: Sequence[float],
        death_rates: Sequence[float],
    ) -> None:
        births = np.asarray(birth_rates, dtype=float)
        deaths = np.asarray(death_rates, dtype=float)
        if births.ndim != 1 or deaths.ndim != 1:
            raise ModelError("rates must be one-dimensional sequences")
        if births.shape != deaths.shape:
            raise ModelError(
                f"{births.shape[0]} birth rates vs {deaths.shape[0]} death rates"
            )
        if births.shape[0] == 0:
            raise ModelError("chain must have at least two states (K >= 1)")
        if (births < 0).any():
            raise ModelError("birth rates must be non-negative")
        if (deaths <= 0).any():
            raise ModelError("death rates must be strictly positive")
        self.birth_rates = births
        self.death_rates = deaths
        self._pi: np.ndarray | None = None

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """The top state ``K`` (number of levels above zero)."""
        return int(self.birth_rates.shape[0])

    @property
    def num_states(self) -> int:
        """Number of states, ``K + 1``."""
        return self.capacity + 1

    # ------------------------------------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """Product-form stationary law.

        ``pi[i] ∝ prod_{j<i} birth[j] / death[j]`` — computed in a
        numerically safe way by normalising against the running maximum in
        log space when rates are extreme.
        """
        if self._pi is not None:
            return self._pi
        k = self.capacity
        log_terms = np.zeros(k + 1)
        with np.errstate(divide="ignore"):
            ratios = np.log(self.birth_rates) - np.log(self.death_rates)
        log_terms[1:] = np.cumsum(ratios)
        # birth rate 0 yields -inf log which correctly zeroes higher states.
        log_terms -= log_terms[np.isfinite(log_terms)].max()
        pi = np.exp(log_terms)
        pi[~np.isfinite(pi)] = 0.0
        pi /= pi.sum()
        self._pi = pi
        return pi

    def blocking_probability(self) -> float:
        """Probability of being in the top state ``K``."""
        return float(self.stationary_distribution()[-1])

    def quantile(self, prob: float) -> int:
        """Smallest level ``l`` with ``P(state <= l) >= prob``."""
        if not 0.0 < prob <= 1.0:
            raise ModelError(f"prob must be in (0, 1], got {prob}")
        cdf = np.cumsum(self.stationary_distribution())
        return int(np.searchsorted(cdf, prob - 1e-12))

    def throughput(self) -> float:
        """Expected long-run rate of *accepted* births.

        For a loss queue this is the carried rate
        ``sum_i pi[i] * birth[i]`` (births are only possible below ``K``).
        """
        pi = self.stationary_distribution()
        return float(pi[:-1] @ self.birth_rates)

    def loss_rate(self) -> float:
        """Long-run rate of blocked births for a constant arrival stream.

        Only meaningful when the birth rate represents a Poisson arrival
        stream that continues to arrive (and is lost) in state ``K``; the
        lost rate is ``pi[K] * birth[K-1]`` extended with the convention
        that arrivals in state ``K`` occur at the same rate as the last
        birth rate.
        """
        pi = self.stationary_distribution()
        return float(pi[-1] * self.birth_rates[-1])

    # ------------------------------------------------------------------

    def to_ctmc(self) -> ContinuousTimeMarkovChain:
        """Materialise the full generator as a
        :class:`~repro.queueing.markov_chain.ContinuousTimeMarkovChain`."""
        n = self.num_states
        q = np.zeros((n, n))
        for i in range(self.capacity):
            q[i, i + 1] = self.birth_rates[i]
            q[i + 1, i] = self.death_rates[i]
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return ContinuousTimeMarkovChain(q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BirthDeathChain(K={self.capacity})"
