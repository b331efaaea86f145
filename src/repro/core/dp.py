"""Dynamic-programming solvers for unconstrained average-cost CTMDPs.

The LP of :mod:`repro.core.lp` is the method the paper uses (it handles
constraints).  For the *unconstrained* problem, relative value iteration
and policy iteration on the uniformized chain must agree with the LP —
tests and the solver-ablation bench (`benchmarks/bench_ablation_solvers.py`)
rely on this cross-check, which guards both implementations.

Both solvers work on the uniformized discrete-time MDP, in the
**compiled** sparse form
(:meth:`repro.core.compiled.CompiledCTMDP.uniformized_sparse`) with fully
vectorised Bellman sweeps.  The original dense, per-state-loop
implementations stay as private oracles (``_reference_rvi`` and
``_reference_pi``), which the equivalence tests in
``tests/test_compiled.py`` hold the fast path against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.ctmdp import CTMDP, Action, State
from repro.core.policy import StationaryPolicy
from repro.errors import SolverError


@dataclass
class DPSolution:
    """Result of a dynamic-programming solve.

    Attributes
    ----------
    average_cost_rate:
        Optimal long-run average cost per unit of (continuous) time.
    policy:
        An optimal deterministic stationary policy.
    bias:
        The relative value (bias) vector ``h`` indexed like
        ``model.states``, normalised so ``h[0] = 0``.
    iterations:
        Number of iterations performed.
    """

    average_cost_rate: float
    policy: StationaryPolicy
    bias: np.ndarray
    iterations: int


def _grouped_pairs(model: CTMDP) -> List[Tuple[State, List[int]]]:
    """For each state, the row indices of its actions in the pair list."""
    pairs = model.state_action_pairs_ro()
    index_of_pair = {pair: k for k, pair in enumerate(pairs)}
    grouped = []
    for s in model.states_ro:
        rows = [index_of_pair[(s, a)] for a in model.actions_ro(s)]
        grouped.append((s, rows))
    return grouped


def _first_argmin_per_group(
    q_values: np.ndarray,
    group_mins: np.ndarray,
    pair_state: np.ndarray,
    n_states: int,
) -> np.ndarray:
    """Lowest pair row achieving each state's minimum Q-value.

    ``group_mins`` must be exact element values (e.g. from
    ``np.minimum.reduceat``) so the equality test below matches at least
    one row per state; writing hits in reverse keeps the *first* one,
    matching ``np.argmin``'s tie-breaking in the reference path.
    """
    hits = np.flatnonzero(q_values <= group_mins[pair_state])
    best = np.empty(n_states, dtype=np.int64)
    best[pair_state[hits][::-1]] = hits[::-1]
    return best


def relative_value_iteration(
    model: CTMDP,
    tol: float = 1e-10,
    max_iter: int = 500_000,
) -> DPSolution:
    """Relative value iteration for the average-cost criterion.

    Iterates ``h <- T h - (T h)(s0)`` where ``T`` is the Bellman operator
    of the uniformized MDP, until the span of ``T h - h`` contracts below
    ``tol``.  Requires the uniformized chain to be aperiodic, which the
    self-loop slack introduced by strict uniformization guarantees.

    Raises
    ------
    SolverError
        If the span fails to contract within ``max_iter`` sweeps.
    """
    model.validate()
    comp = model.compiled()
    p, c, rate = comp.uniformized_sparse()
    group_start = comp.group_start[:-1]
    pair_state = comp.pair_state
    n = comp.n_states
    h = np.zeros(n)
    for iteration in range(1, max_iter + 1):
        q_values = c + p @ h
        t_h = np.minimum.reduceat(q_values, group_start)
        diff = t_h - h
        span = float(diff.max() - diff.min())
        h = t_h - t_h[0]
        if span < tol:
            gain_per_step = float(0.5 * (diff.max() + diff.min()))
            best_rows = _first_argmin_per_group(q_values, t_h, pair_state, n)
            choice = {
                s: comp.pairs[best_rows[i]][1]
                for i, s in enumerate(comp.states)
            }
            policy = StationaryPolicy.deterministic(model, choice)
            return DPSolution(
                average_cost_rate=gain_per_step * rate,
                policy=policy,
                bias=h,
                iterations=iteration,
            )
    raise SolverError(
        f"relative value iteration did not converge in {max_iter} sweeps"
    )


def _reference_rvi(
    model: CTMDP, tol: float = 1e-10, max_iter: int = 500_000
) -> DPSolution:
    """Original dense per-state implementation (equivalence reference)."""
    model.validate()
    p, c, pairs, rate = model.uniformized()
    grouped = _grouped_pairs(model)
    n = model.num_states
    h = np.zeros(n)
    for iteration in range(1, max_iter + 1):
        q_values = c + p @ h
        t_h = np.empty(n)
        best_rows = np.empty(n, dtype=int)
        for i, (_s, rows) in enumerate(grouped):
            values = q_values[rows]
            best = int(np.argmin(values))
            t_h[i] = values[best]
            best_rows[i] = rows[best]
        diff = t_h - h
        span = float(diff.max() - diff.min())
        h = t_h - t_h[0]
        if span < tol:
            gain_per_step = float(0.5 * (diff.max() + diff.min()))
            choice = {
                s: pairs[best_rows[i]][1] for i, (s, _rows) in enumerate(grouped)
            }
            policy = StationaryPolicy.deterministic(model, choice)
            return DPSolution(
                average_cost_rate=gain_per_step * rate,
                policy=policy,
                bias=h,
                iterations=iteration,
            )
    raise SolverError(
        f"relative value iteration did not converge in {max_iter} sweeps"
    )


def policy_iteration(
    model: CTMDP,
    max_iter: int = 10_000,
) -> DPSolution:
    """Howard policy iteration for the average-cost criterion.

    Alternates exact policy evaluation (solving the Poisson equation of
    the uniformized chain) with greedy improvement.  Assumes the chain
    induced by every policy is unichain — true for all bus models built by
    this library because arrivals and services keep the occupancy lattice
    connected.

    Raises
    ------
    SolverError
        If no stable policy is found within ``max_iter`` improvements.
    """
    model.validate()
    comp = model.compiled()
    p, c, rate = comp.uniformized_sparse()
    group_start = comp.group_start[:-1]
    pair_state = comp.pair_state
    n = comp.n_states
    # Start from each state's first action.
    current = comp.group_start[:-1].astype(np.int64).copy()
    for iteration in range(1, max_iter + 1):
        # --- evaluation: solve (I - P_pi) h + g 1 = c_pi with h[0] = 0.
        p_pi = p[current].toarray()
        c_pi = c[current]
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = np.eye(n) - p_pi
        a[:n, n] = 1.0
        a[n, 0] = 1.0  # pin h[0] = 0
        rhs = np.concatenate([c_pi, [0.0]])
        try:
            solution = np.linalg.lstsq(a, rhs, rcond=None)[0]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolverError("policy evaluation failed") from exc
        h, gain = solution[:n], float(solution[n])
        # --- improvement (incumbent kept on ties to guarantee
        # termination, as in the reference path).
        q_values = c + p @ h
        mins = np.minimum.reduceat(q_values, group_start)
        best_rows = _first_argmin_per_group(q_values, mins, pair_state, n)
        improve = q_values[best_rows] < q_values[current] - 1e-12
        new_current = np.where(improve, best_rows, current)
        if (new_current == current).all():
            choice = {
                s: comp.pairs[current[i]][1] for i, s in enumerate(comp.states)
            }
            policy = StationaryPolicy.deterministic(model, choice)
            return DPSolution(
                average_cost_rate=gain * rate,
                policy=policy,
                bias=h - h[0],
                iterations=iteration,
            )
        current = new_current
    raise SolverError(f"policy iteration did not converge in {max_iter} steps")


def _reference_pi(model: CTMDP, max_iter: int = 10_000) -> DPSolution:
    """Original dense per-state implementation (equivalence reference)."""
    model.validate()
    p, c, pairs, rate = model.uniformized()
    grouped = _grouped_pairs(model)
    n = model.num_states
    current = np.array([rows[0] for (_s, rows) in grouped], dtype=int)
    for iteration in range(1, max_iter + 1):
        p_pi = p[current]
        c_pi = c[current]
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = np.eye(n) - p_pi
        a[:n, n] = 1.0
        a[n, 0] = 1.0  # pin h[0] = 0
        rhs = np.concatenate([c_pi, [0.0]])
        try:
            solution = np.linalg.lstsq(a, rhs, rcond=None)[0]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolverError("policy evaluation failed") from exc
        h, gain = solution[:n], float(solution[n])
        q_values = c + p @ h
        new_current = current.copy()
        for i, (_s, rows) in enumerate(grouped):
            values = q_values[rows]
            best = rows[int(np.argmin(values))]
            # Keep the incumbent on ties to guarantee termination.
            if q_values[best] < q_values[current[i]] - 1e-12:
                new_current[i] = best
        if (new_current == current).all():
            choice = {
                s: pairs[current[i]][1] for i, (s, _rows) in enumerate(grouped)
            }
            policy = StationaryPolicy.deterministic(model, choice)
            return DPSolution(
                average_cost_rate=gain * rate,
                policy=policy,
                bias=h - h[0],
                iterations=iteration,
            )
        current = new_current
    raise SolverError(f"policy iteration did not converge in {max_iter} steps")
