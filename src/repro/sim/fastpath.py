"""Fast-path RNG helpers for the discrete-event simulator.

The simulator's hottest random draws are exponential variates — one per
bus transaction and one per packet arrival.  Drawing them through numpy
one at a time pays the full ``Generator`` dispatch cost per event;
drawing them in chunks amortises it roughly tenfold while consuming the
underlying bit stream **identically** (numpy generates a size-``n``
batch by repeating the single-draw ziggurat step ``n`` times), so
fixed-seed simulations are bitwise unchanged.

The pool must be the *only* consumer of its generator for the identity
to hold — callers that interleave other draws on the same generator
(e.g. a randomised arbiter) must keep drawing scalars instead.
"""

from __future__ import annotations

import numpy as np


class ExponentialPool:
    """Chunked standard-exponential variates from one generator.

    ``pool.next() * scale`` is bitwise identical to
    ``rng.exponential(scale)`` on a generator in the same state, because
    ``Generator.exponential(scale)`` is exactly
    ``scale * standard_exponential()`` and batched ``standard_exponential``
    draws consume the bit stream like repeated scalar draws.
    """

    __slots__ = ("_rng", "_chunk", "_buf", "_index")

    def __init__(self, rng: np.random.Generator, chunk: int = 512) -> None:
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self._rng = rng
        self._chunk = chunk
        self._buf = rng.standard_exponential(chunk)
        self._index = 0

    def next(self) -> float:
        """The next standard-exponential variate (mean 1).

        Returned as a Python float (exact same 64-bit value) so numpy
        scalar types never leak into the simulation clock, matching the
        scalar-draw path's return type.
        """
        i = self._index
        if i >= self._chunk:
            self._buf = self._rng.standard_exponential(self._chunk)
            i = 0
        self._index = i + 1
        return float(self._buf[i])

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` variates as one float64 array.

        Stream-identical to ``count`` successive :meth:`next` calls —
        the pool still refills in ``chunk``-sized batches, so mixing
        :meth:`take` and :meth:`next` on one pool consumes the generator
        exactly like scalar draws would.  The batched simulation lane
        uses this to pre-draw service variates into flat arrays it then
        indexes without any per-event method call.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        out = np.empty(count)
        filled = 0
        while filled < count:
            if self._index >= self._chunk:
                self._buf = self._rng.standard_exponential(self._chunk)
                self._index = 0
            step = min(self._chunk - self._index, count - filled)
            out[filled:filled + step] = self._buf[
                self._index:self._index + step
            ]
            self._index += step
            filled += step
        return out

