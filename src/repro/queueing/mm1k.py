"""The M/M/1/K loss queue.

This closed-form model serves two roles in the reproduction:

1. It validates the discrete-event simulator (:mod:`repro.sim`): a single
   processor on an otherwise idle bus is exactly an M/M/1/K queue, so the
   simulated blocking probability must match :meth:`MM1KQueue.blocking_probability`.
2. It powers the *analytic-greedy* baseline sizing policy
   (:mod:`repro.policies.analytic`): marginal loss improvements per extra
   buffer slot are computed from these formulas.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.queueing.birth_death import BirthDeathChain


class MM1KQueue:
    """An M/M/1/K queue (Poisson arrivals, exponential service, K slots).

    ``K`` counts the total number of requests that can be present,
    including the one in service.  Arrivals finding ``K`` present are lost.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate ``lambda > 0``.
    service_rate:
        Exponential service rate ``mu > 0``.
    capacity:
        Total capacity ``K >= 1``.
    """

    def __init__(self, arrival_rate: float, service_rate: float, capacity: int) -> None:
        if arrival_rate <= 0:
            raise ModelError(f"arrival rate must be positive, got {arrival_rate}")
        if service_rate <= 0:
            raise ModelError(f"service rate must be positive, got {service_rate}")
        if capacity < 1:
            raise ModelError(f"capacity must be >= 1, got {capacity}")
        self.arrival_rate = float(arrival_rate)
        self.service_rate = float(service_rate)
        self.capacity = int(capacity)

    # ------------------------------------------------------------------

    @property
    def rho(self) -> float:
        """Offered load ``lambda / mu``."""
        return self.arrival_rate / self.service_rate

    def state_probabilities(self) -> np.ndarray:
        """Stationary distribution over ``0..K`` requests present.

        Uses the geometric closed form, with the ``rho == 1`` special case
        giving the uniform distribution.
        """
        k = self.capacity
        rho = self.rho
        if abs(rho - 1.0) < 1e-12:
            return np.full(k + 1, 1.0 / (k + 1))
        powers = rho ** np.arange(k + 1)
        return powers * (1.0 - rho) / (1.0 - rho ** (k + 1))

    def blocking_probability(self) -> float:
        """Probability an arrival is lost, ``P(N = K)`` (PASTA)."""
        return float(self.state_probabilities()[-1])

    def loss_rate(self) -> float:
        """Long-run rate of lost requests, ``lambda * P_block``."""
        return self.arrival_rate * self.blocking_probability()

    def carried_rate(self) -> float:
        """Rate of accepted (eventually served) requests."""
        return self.arrival_rate * (1.0 - self.blocking_probability())

    def mean_number_in_system(self) -> float:
        """Expected number of requests present."""
        probs = self.state_probabilities()
        return float(probs @ np.arange(self.capacity + 1))

    def mean_sojourn_time(self) -> float:
        """Expected time an *accepted* request spends in the system.

        By Little's law applied to accepted traffic:
        ``L / lambda_carried``.
        """
        carried = self.carried_rate()
        if carried <= 0:
            raise ModelError("carried rate is zero; sojourn time undefined")
        return self.mean_number_in_system() / carried

    def mean_waiting_time(self) -> float:
        """Expected queueing delay (sojourn minus service) of accepted requests."""
        return max(self.mean_sojourn_time() - 1.0 / self.service_rate, 0.0)

    def to_birth_death(self) -> BirthDeathChain:
        """Equivalent birth-death chain on ``0..K``."""
        k = self.capacity
        return BirthDeathChain(
            birth_rates=[self.arrival_rate] * k,
            death_rates=[self.service_rate] * k,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MM1KQueue(lambda={self.arrival_rate:.3g}, "
            f"mu={self.service_rate:.3g}, K={self.capacity})"
        )

