"""Finite continuous-time Markov chains (CTMCs).

A CTMC on states ``0..n-1`` is described by its generator (rate) matrix
``Q`` where ``Q[i, j] >= 0`` for ``i != j`` is the transition rate from
``i`` to ``j`` and each row sums to zero.  This module provides
structural validation of generators and steady-state (stationary)
distributions via a dense linear solve.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ModelError

#: Tolerance used when checking that generator rows sum to zero.
ROW_SUM_TOL = 1e-8


def validate_generator(matrix: np.ndarray, tol: float = ROW_SUM_TOL) -> np.ndarray:
    """Validate and return a CTMC generator matrix.

    Parameters
    ----------
    matrix:
        Square array-like.  Off-diagonal entries must be non-negative and
        every row must sum to (numerically) zero.
    tol:
        Maximum tolerated absolute row sum.

    Returns
    -------
    numpy.ndarray
        A float copy of the validated generator.

    Raises
    ------
    ModelError
        If the matrix is not square, has a negative off-diagonal entry, or
        a row sum exceeding ``tol`` in magnitude.
    """
    q = np.asarray(matrix, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ModelError(f"generator must be square, got shape {q.shape}")
    n = q.shape[0]
    if n == 0:
        raise ModelError("generator must have at least one state")
    off_diag = q.copy()
    np.fill_diagonal(off_diag, 0.0)
    if (off_diag < -tol).any():
        i, j = np.argwhere(off_diag < -tol)[0]
        raise ModelError(
            f"negative off-diagonal rate q[{i},{j}]={q[i, j]:.3g}"
        )
    row_sums = q.sum(axis=1)
    worst = np.abs(row_sums).max()
    if worst > max(tol, tol * np.abs(q).max()):
        i = int(np.abs(row_sums).argmax())
        raise ModelError(
            f"generator row {i} sums to {row_sums[i]:.3g}, expected 0"
        )
    return q


class ContinuousTimeMarkovChain:
    """A finite CTMC with analysis helpers.

    Parameters
    ----------
    generator:
        Square generator matrix; validated on construction.
    state_labels:
        Optional hashable labels for the states, used in reports.  Defaults
        to ``range(n)``.
    """

    def __init__(
        self,
        generator: np.ndarray,
        state_labels: Optional[Sequence] = None,
    ) -> None:
        self.generator = validate_generator(generator)
        n = self.generator.shape[0]
        if state_labels is None:
            state_labels = list(range(n))
        if len(state_labels) != n:
            raise ModelError(
                f"{len(state_labels)} labels supplied for {n} states"
            )
        self.state_labels = list(state_labels)
        self._index = {label: i for i, label in enumerate(self.state_labels)}
        if len(self._index) != n:
            raise ModelError("state labels must be unique")
        self._stationary: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        """Number of states in the chain."""
        return self.generator.shape[0]

    def index_of(self, label) -> int:
        """Return the matrix index of a state label."""
        try:
            return self._index[label]
        except KeyError:
            raise ModelError(f"unknown state label {label!r}") from None

    def exit_rate(self, label) -> float:
        """Total rate of leaving the given state."""
        i = self.index_of(label)
        return float(-self.generator[i, i])

    # ------------------------------------------------------------------
    # Steady state
    # ------------------------------------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """Solve ``pi Q = 0`` with ``sum(pi) = 1``.

        Uses a dense least-squares solve of the augmented system, which is
        robust for the moderately sized (up to a few thousand states)
        chains this library constructs.  The result is cached.

        Raises
        ------
        ModelError
            If the chain has no strictly positive stationary solution
            (e.g. it is reducible with multiple closed classes, making the
            solution non-unique).
        """
        if self._stationary is not None:
            return self._stationary
        n = self.num_states
        # pi Q = 0  and  pi 1 = 1  =>  A^T pi^T = b
        a = np.vstack([self.generator.T, np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, residuals, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < n:
            raise ModelError(
                "stationary distribution is not unique (reducible chain?)"
            )
        if (pi < -1e-8).any():
            raise ModelError("stationary solve produced negative probabilities")
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if not np.isfinite(total) or total <= 0:
            raise ModelError("stationary solve failed to normalise")
        pi /= total
        residual = float(np.abs(pi @ self.generator).max())
        if residual > 1e-6:
            raise ModelError(
                f"stationary residual {residual:.3g} too large; "
                "generator may be ill-conditioned"
            )
        self._stationary = pi
        return pi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContinuousTimeMarkovChain(num_states={self.num_states})"
        )
