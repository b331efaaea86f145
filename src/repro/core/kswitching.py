"""K-switching translation: occupation measures -> integer buffer sizes.

Feinberg 2002 shows optimal policies for constrained CTMDPs can be taken
as mixtures that randomise ("switch") in at most K states, K = number of
constraints.  The paper uses this machinery to "translate the state
action pair probabilities into buffer space requirements ... for a
certain processor bus pair".

Concretely this module turns the per-client queue-length marginals of
the LP solution into an integer allocation:

1.  Every client gets a minimum size (default 1 — a bufferless client
    cannot communicate at all).
2.  Remaining budget slots are handed out greedily: each extra slot goes
    to the client with the largest *marginal loss coverage*, i.e. the
    weighted probability mass ``w_i * lambda_i * P(q_i >= size_i)`` that
    the next slot would absorb.  This is exactly the water-filling the
    occupation measure implies: clients whose optimal stationary law
    keeps deep queues receive deep buffers.
3.  :func:`switching_mixture` exposes the two-point randomisation of the
    fractional relaxation (the literal K-switching construction) for
    callers that want an expected-budget-exact mixture rather than an
    integer allocation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import InfeasibleError, PolicyError


@dataclass(frozen=True)
class ClientDemand:
    """Sizing inputs for one client.

    Attributes
    ----------
    name:
        Client (buffer) name.
    marginal:
        Stationary queue-length distribution ``p[q]`` from the LP, length
        ``cap + 1``.
    arrival_rate:
        Mean offered rate (scales the value of covering tail mass).
    loss_weight:
        Relative importance of this client's losses.
    max_size:
        Hard upper bound on this client's buffer (the model's cap).
    """

    name: str
    marginal: np.ndarray
    arrival_rate: float
    loss_weight: float = 1.0
    max_size: int = 10**9

    def __post_init__(self) -> None:
        p = np.asarray(self.marginal, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise PolicyError(
                f"client {self.name!r}: marginal must be a 1-D array of "
                "length >= 2"
            )
        if (p < -1e-9).any():
            raise PolicyError(
                f"client {self.name!r}: marginal has negative entries"
            )
        total = p.sum()
        if not np.isfinite(total) or total <= 0:
            raise PolicyError(
                f"client {self.name!r}: marginal does not normalise"
            )
        object.__setattr__(self, "marginal", np.clip(p, 0.0, None) / total)
        if self.arrival_rate < 0:
            raise PolicyError(
                f"client {self.name!r}: arrival rate must be >= 0"
            )
        if self.loss_weight < 0:
            raise PolicyError(
                f"client {self.name!r}: loss weight must be >= 0"
            )
        if self.max_size < 1:
            raise PolicyError(
                f"client {self.name!r}: max size must be >= 1"
            )

    def tail(self, level: int) -> float:
        """``P(q >= level)`` under the marginal (clamped past the cap)."""
        if level <= 0:
            return 1.0
        if level >= self.marginal.size:
            return 0.0
        return float(self.marginal[level:].sum())

    def truncated_loss(self, size: int) -> float:
        """Predicted weighted loss rate if this buffer had ``size`` slots.

        For a birth-death client the stationary law truncated at ``size``
        is the renormalised restriction of the untruncated law, so the
        blocking probability at capacity ``size`` is
        ``m[size] / sum(m[:size + 1])``.  Sizes beyond the marginal's
        support are treated as lossless.
        """
        if size < 0:
            raise PolicyError(f"size must be >= 0, got {size}")
        if size >= self.marginal.size - 1 and self.marginal[-1] <= 0:
            return 0.0
        k = min(size, self.marginal.size - 1)
        cdf = float(self.marginal[: k + 1].sum())
        if cdf <= 0:
            return self.loss_weight * self.arrival_rate
        return (
            self.loss_weight * self.arrival_rate * float(self.marginal[k]) / cdf
        )

    def slot_value(self, current_size: int) -> float:
        """Marginal benefit of growing this client's buffer by one slot.

        The predicted loss-rate reduction
        ``truncated_loss(size) - truncated_loss(size + 1)`` — the
        water-filling quantity the K-switching translation optimises.
        """
        return max(
            self.truncated_loss(current_size)
            - self.truncated_loss(current_size + 1),
            0.0,
        )


def allocate_greedy(
    demands: Sequence[ClientDemand], budget: int
) -> Dict[str, int]:
    """Integer allocation summing exactly to ``budget``.

    Every client starts with one slot (or its cap, if that is zero);
    the rest go one at a time to the largest marginal value.

    Raises
    ------
    InfeasibleError
        If the budget cannot cover one slot per client, or exceeds the
        sum of the per-client caps.
    """
    demands = list(demands)
    if not demands:
        raise PolicyError("no clients to size")
    names = [d.name for d in demands]
    if len(set(names)) != len(names):
        raise PolicyError(f"duplicate client names: {names}")
    if budget < len(demands):
        raise InfeasibleError(
            f"budget {budget} below minimum {len(demands)} "
            f"({len(demands)} clients x 1)"
        )
    cap_total = sum(min(d.max_size, budget) for d in demands)
    if budget > cap_total:
        raise InfeasibleError(
            f"budget {budget} exceeds total capacity cap {cap_total}"
        )
    sizes = {d.name: min(1, d.max_size) for d in demands}
    remaining = budget - sum(sizes.values())
    # Max-heap of (negative marginal value, name order) for determinism.
    heap: List[Tuple[float, str]] = []
    by_name = {d.name: d for d in demands}
    for d in demands:
        if sizes[d.name] < d.max_size:
            heapq.heappush(heap, (-d.slot_value(sizes[d.name]), d.name))
    while remaining > 0:
        if not heap:
            raise InfeasibleError(
                "ran out of clients below their caps while slots remain"
            )
        _neg, name = heapq.heappop(heap)
        demand = by_name[name]
        # Lazy re-evaluation: the stored value may be stale.
        fresh = -demand.slot_value(sizes[name])
        if heap and fresh > heap[0][0] + 1e-15:
            heapq.heappush(heap, (fresh, name))
            continue
        sizes[name] += 1
        remaining -= 1
        if sizes[name] < demand.max_size:
            heapq.heappush(heap, (-demand.slot_value(sizes[name]), name))
    return sizes


@dataclass(frozen=True)
class SwitchingMixture:
    """A two-point randomisation over deterministic allocations.

    ``low`` and ``high`` differ in exactly the switching clients; choosing
    ``high`` with probability ``probability`` meets the fractional budget
    in expectation — the literal K-switching construction (K = 1 budget
    constraint => at most one randomised decision).
    """

    low: Dict[str, int]
    high: Dict[str, int]
    probability: float


def switching_mixture(
    demands: Sequence[ClientDemand],
    fractional_budget: float,
) -> SwitchingMixture:
    """Mixture of floor/ceil allocations hitting a fractional budget.

    Builds the greedy allocation at ``floor(budget)`` and at
    ``ceil(budget)`` and mixes them with the fractional part as the
    switching probability.  With an integer budget the mixture collapses
    to a single deterministic allocation (probability 0).
    """
    if fractional_budget <= 0:
        raise PolicyError(
            f"fractional budget must be > 0, got {fractional_budget}"
        )
    lo = int(np.floor(fractional_budget))
    hi = int(np.ceil(fractional_budget))
    frac = fractional_budget - lo
    low = allocate_greedy(demands, lo)
    if hi == lo:
        return SwitchingMixture(low=low, high=dict(low), probability=0.0)
    high = allocate_greedy(demands, hi)
    return SwitchingMixture(low=low, high=high, probability=frac)
