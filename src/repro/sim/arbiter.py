"""Bus arbitration policies.

The arbiter decides, whenever the bus frees up, which non-empty client
buffer is granted next.  The CTMDP solution influences the simulator
mainly through *buffer sizes*, but the LP's bus-time shares can also be
fed back as :class:`WeightedRandomArbiter` weights — the stochastic
arbitration the paper derives from state-action probabilities.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import PolicyError
from repro.sim.buffer import FiniteBuffer


class Arbiter(abc.ABC):
    """Interface: pick the next buffer to serve among non-empty ones.

    Every policy exposes two equivalent surfaces:

    * :meth:`grant` — the heap engine's view: a sequence of
      :class:`FiniteBuffer` objects whose occupancies are inspected.
    * :meth:`grant_counts` — the batched lane's view: a plain sequence
      of occupancy counts (plus the client names, for weight lookups).

    Both must pick the same index for the same occupancy pattern and —
    for randomised policies — consume the shared generator through the
    **same sequence of calls**, so a fixed-seed run is bitwise identical
    whichever surface drives it (asserted by the equivalence tests).
    """

    #: Whether :meth:`grant` ever consumes the shared generator.  The
    #: bus only batches its service-duration draws (a pure speedup that
    #: keeps fixed-seed runs bitwise identical) when this is False;
    #: randomised arbiters must leave it True so the interleaving of
    #: their draws with service draws is preserved.
    uses_rng: bool = True

    @abc.abstractmethod
    def grant(
        self,
        buffers: Sequence[FiniteBuffer],
        now: float,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Index into ``buffers`` of the granted client, or None if all empty."""

    @abc.abstractmethod
    def grant_counts(
        self,
        counts: Sequence[int],
        names: Sequence[str],
        now: float,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """:meth:`grant` over an occupancy-count array.

        ``counts[i]`` is the queue length of client ``names[i]`` (same
        order the buffer list would have).  Returns the granted index or
        None when every count is zero.
        """


class FixedPriorityArbiter(Arbiter):
    """Always grant the lowest-indexed non-empty buffer.

    Client order is the deterministic order the system builder uses, so
    priorities are reproducible.
    """

    uses_rng = False

    def grant(self, buffers, now, rng):
        for i, buf in enumerate(buffers):
            if not buf.is_empty:
                return i
        return None

    def grant_counts(self, counts, names, now, rng):
        for i, c in enumerate(counts):
            if c:
                return i
        return None


class RoundRobinArbiter(Arbiter):
    """Cycle through clients starting after the last grant."""

    uses_rng = False

    def __init__(self) -> None:
        self._last = -1

    def grant(self, buffers, now, rng):
        n = len(buffers)
        for offset in range(1, n + 1):
            i = (self._last + offset) % n
            if not buffers[i].is_empty:
                self._last = i
                return i
        return None

    def grant_counts(self, counts, names, now, rng):
        n = len(counts)
        last = self._last
        for offset in range(1, n + 1):
            i = (last + offset) % n
            if counts[i]:
                self._last = i
                return i
        return None


class LongestQueueArbiter(Arbiter):
    """Grant the fullest buffer (ties to the lowest index)."""

    uses_rng = False

    def grant(self, buffers, now, rng):
        best = None
        best_len = 0
        for i, buf in enumerate(buffers):
            if buf.occupancy > best_len:
                best = i
                best_len = buf.occupancy
        return best

    def grant_counts(self, counts, names, now, rng):
        best = None
        best_len = 0
        for i, c in enumerate(counts):
            if c > best_len:
                best = i
                best_len = c
        return best


class WeightedRandomArbiter(Arbiter):
    """Grant a random non-empty buffer with fixed client weights.

    Weights are keyed by client (buffer) name; missing names default to
    weight one.  This realises a stationary randomised arbitration policy
    such as the bus-time shares extracted from the CTMDP solution.
    """

    def __init__(self, weights: Dict[str, float]) -> None:
        for name, w in weights.items():
            if w < 0:
                raise PolicyError(
                    f"arbiter weight for {name!r} must be >= 0, got {w}"
                )
        self.weights = dict(weights)

    def grant(self, buffers, now, rng):
        candidates = [i for i, b in enumerate(buffers) if not b.is_empty]
        if not candidates:
            return None
        w = np.array(
            [self.weights.get(buffers[i].name, 1.0) for i in candidates]
        )
        total = w.sum()
        if total <= 0:
            # All-zero weights among candidates: fall back to uniform.
            return candidates[int(rng.integers(len(candidates)))]
        return candidates[int(rng.choice(len(candidates), p=w / total))]

    def grant_counts(self, counts, names, now, rng):
        # Performs the exact generator calls of grant() on the same
        # candidate set, so the two surfaces consume the shared bit
        # stream identically (the batched lane's determinism contract).
        candidates = [i for i, c in enumerate(counts) if c]
        if not candidates:
            return None
        w = np.array([self.weights.get(names[i], 1.0) for i in candidates])
        total = w.sum()
        if total <= 0:
            return candidates[int(rng.integers(len(candidates)))]
        return candidates[int(rng.choice(len(candidates), p=w / total))]


_ARBITERS = {
    "fixed_priority": FixedPriorityArbiter,
    "round_robin": RoundRobinArbiter,
    "longest_queue": LongestQueueArbiter,
}

#: Inline-dispatch tags for the array lanes (batched and megabatch).
#: The three built-in deterministic policies have branch-free inlined
#: copies in the kernels; everything else — randomised or user-defined —
#: is ``ARB_GENERIC`` and goes through :meth:`Arbiter.grant_counts`.
ARB_FIXED, ARB_ROUND_ROBIN, ARB_LONGEST, ARB_GENERIC = 0, 1, 2, 3

#: Arbiter kinds the mega-batch kernel can run natively (deterministic,
#: no generator access, total event order — the bitwise contract).
KERNEL_ARBITERS = ("fixed_priority", "round_robin", "longest_queue")


def kernel_tag(arbiter: Arbiter) -> int:
    """The inline-dispatch tag of one arbiter *instance*.

    Exact-type matching on purpose: a subclass may override behaviour,
    so it must take the generic (method-dispatch) path even though it
    would pass an ``isinstance`` check.
    """
    if type(arbiter) is FixedPriorityArbiter:
        return ARB_FIXED
    if type(arbiter) is RoundRobinArbiter:
        return ARB_ROUND_ROBIN
    if type(arbiter) is LongestQueueArbiter:
        return ARB_LONGEST
    return ARB_GENERIC


def check_arbiter_kind(kind: str) -> None:
    """Raise :class:`PolicyError` unless ``make_arbiter`` knows ``kind``."""
    if kind != "weighted_random" and kind not in _ARBITERS:
        raise PolicyError(
            f"unknown arbiter {kind!r}; choose from "
            f"{sorted(_ARBITERS) + ['weighted_random']}"
        )


def make_arbiter(kind: str = "longest_queue", **kwargs) -> Arbiter:
    """Factory from a string name (used by runner/experiment configs).

    ``kind='weighted_random'`` additionally accepts ``weights=...``.
    """
    check_arbiter_kind(kind)
    if kind == "weighted_random":
        return WeightedRandomArbiter(kwargs.get("weights", {}))
    return _ARBITERS[kind]()
