"""Occupation-measure linear programs for average-cost CTMDPs.

This module implements the LP characterisation of optimal policies for
average-cost constrained CTMDPs used by the paper (its reference [1],
Feinberg 2002, "Optimal control of average reward constrained continuous
time finite Markov decision processes").

For a single CTMDP the LP over the occupation measure ``x(s, a)``
(the long-run fraction of time spent in state ``s`` while the controller
uses action ``a``) is::

    minimise    sum_{s,a} x(s,a) c(s,a)
    subject to  sum_{s,a} x(s,a) q(j | s, a) = 0       for every state j
                sum_{s,a} x(s,a)             = 1
                sum_{s,a} x(s,a) d_k(s,a)   <= D_k     for every constraint k
                x(s,a) >= 0

where ``q(j | s, a)`` is the transition rate into ``j`` (negative exit
rate when ``j = s``).  An optimal policy is recovered as
``phi(a|s) = x(s,a) / sum_a x(s,a)``.

The paper's central observation is that when buses talk *through bridges*
the joint system couples the occupation measures of the individual buses
multiplicatively, so the equality constraints above become **quadratic**
(see :mod:`repro.core.quadratic` for that honest, failing formulation).
Its remedy — split the architecture into linear subsystems and solve all
of them **in one go** — corresponds here to :class:`BlockLP`: one
occupation-measure block per subsystem, stitched together by *shared
linear* constraints (the global buffer budget) while bridge flow rates are
resolved by an outer fixed point (:mod:`repro.core.sizing`).

Assembly runs on the compiled kernel layer (:mod:`repro.core.compiled`):
each block contributes pre-flattened COO triplets instead of per-pair
dict walks, and :class:`BlockProgram` keeps the sparse structure plus
the last optimal simplex **basis** between solves, so a sequence of LPs
that differ only in rate/cost coefficients — the bridge-rate fixed point
of :class:`~repro.core.sizing.BufferSizer` — pays the interior-point
cost once and warm-starts every subsequent solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compiled import COOMatrix, SparseLPResult, solve_sparse_lp
from repro.core.ctmdp import CTMDP, Action, State
from repro.core.policy import StationaryPolicy, policy_from_occupation_measure
from repro.errors import InfeasibleError, SolverError


@dataclass
class ConstraintSpec:
    """An upper bound on the long-run average of a named constraint cost.

    ``sum_{s,a} x(s,a) * model.constraint_rate(name, s, a) <= bound``.
    """

    name: str
    bound: float


@dataclass
class LPSolution:
    """Solution of a (block) occupation-measure LP.

    Attributes
    ----------
    objective:
        Optimal long-run average cost rate (weighted over blocks).
    occupations:
        Per block: mapping ``(state, action) -> probability mass``.
    policies:
        Per block: the extracted stationary randomised policy.  Empty
        for the model-free compiled sizing path, which carries no CTMDP
        objects to extract policies from.
    block_costs:
        Per block: its own average cost rate under the solution.
    constraint_values:
        Achieved long-run averages for every local and shared constraint,
        keyed by ``(block_index, name)`` for local and ``name`` for shared.
    iterations:
        Simplex/IPM iteration count reported by the backend.
    """

    objective: float
    occupations: List[Dict[Tuple[State, Action], float]]
    policies: List[StationaryPolicy]
    block_costs: List[float]
    constraint_values: Dict[object, float]
    iterations: int


class AverageCostLP:
    """Occupation-measure LP solver for a single CTMDP.

    Thin convenience wrapper over :class:`BlockLP` with one block.
    """

    def __init__(self, model: CTMDP) -> None:
        model.validate()
        self.model = model

    def solve(
        self, constraints: Sequence[ConstraintSpec] = ()
    ) -> LPSolution:
        """Solve the (constrained) average-cost problem.

        ``constraints`` are local constraint bounds, referencing the
        model's named constraint rates.
        """
        block = BlockLP()
        block.add_block(self.model, constraints=constraints)
        return block.solve()


class BlockProgram:
    """A compiled joint occupation-measure LP with refreshable values.

    The program is assembled from *block providers* — any objects
    exposing ``n_states``, ``n_pairs``, ``cost_rates``,
    ``balance_coo()`` and ``constraint_vector(name)``
    (:class:`~repro.core.compiled.CompiledCTMDP` and
    :class:`~repro.core.compiled.CompiledBusLattice` both qualify).  The
    sparsity *structure* is fixed at construction; every call to
    :meth:`solve` re-reads the providers' current coefficient arrays, so
    callers refresh rates in place and re-solve.  The optimal basis of
    each solve warm-starts the next.

    Inequality rows come in two forms: ``vector`` rows built from each
    provider's named constraint vector (re-read per solve), and ``dict``
    rows with explicit per-pair coefficients (fixed at construction).
    """

    def __init__(
        self,
        providers: Sequence,
        weights: Sequence[float],
    ) -> None:
        if not providers:
            raise SolverError("BlockProgram has no blocks")
        self.providers = list(providers)
        self.weights = [float(w) for w in weights]
        self.pair_offsets = np.cumsum(
            [0] + [p.n_pairs for p in self.providers]
        )
        self.num_vars = int(self.pair_offsets[-1])
        self.num_balance = sum(p.n_states for p in self.providers)
        # (key, per-block constraint name or None, cols, vals, bound);
        # vector rows recompute cols/vals from providers at solve time.
        self._vector_rows: List[Tuple[object, List[str], float]] = []
        self._dict_rows: List[
            Tuple[object, np.ndarray, np.ndarray, float]
        ] = []
        self._basis = None

    # ------------------------------------------------------------------

    @property
    def structure_signature(self) -> Tuple[int, int, int]:
        """Shape fingerprint deciding whether a foreign basis can seed us.

        Two programs with equal signatures have identical variable and
        row counts, so a basis from one is dimensionally valid for the
        other (warm starts across a budget sweep with fixed capacities).
        """
        return (
            self.num_vars,
            self.num_balance + len(self.providers),
            len(self._vector_rows) + len(self._dict_rows),
        )

    @property
    def last_basis(self) -> Optional[object]:
        """The optimal basis of the most recent solve (None before any)."""
        return self._basis

    def seed_basis(self, basis: object) -> None:
        """Install a warm-start basis for the next :meth:`solve`.

        Callers must check :attr:`structure_signature` compatibility; a
        dimensionally mismatched basis is backend-undefined behaviour.
        """
        self._basis = basis

    def add_vector_row(
        self, key: object, names: List[Optional[str]], bound: float
    ) -> None:
        """Row ``sum_b x_b . constraint_vector(names[b]) <= bound``.

        ``names[b] = None`` leaves block ``b`` out of the row.
        """
        if len(names) != len(self.providers):
            raise SolverError(
                f"constraint {key!r} supplies {len(names)} names for "
                f"{len(self.providers)} blocks"
            )
        self._vector_rows.append((key, list(names), float(bound)))

    def add_dict_row(
        self, key: object, cols: np.ndarray, vals: np.ndarray, bound: float
    ) -> None:
        """Row with explicit column coefficients (fixed values)."""
        self._dict_rows.append(
            (key, np.asarray(cols), np.asarray(vals), float(bound))
        )

    # ------------------------------------------------------------------

    def _assemble_equalities(self) -> Tuple[COOMatrix, np.ndarray]:
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        state_offset = 0
        for b, provider in enumerate(self.providers):
            r, c, v = provider.balance_coo()
            rows.append(r + state_offset)
            cols.append(c + self.pair_offsets[b])
            vals.append(v)
            state_offset += provider.n_states
        # Normalisation row per block.
        for b, provider in enumerate(self.providers):
            cols.append(
                np.arange(
                    self.pair_offsets[b],
                    self.pair_offsets[b + 1],
                    dtype=np.int64,
                )
            )
            rows.append(
                np.full(provider.n_pairs, self.num_balance + b, dtype=np.int64)
            )
            vals.append(np.ones(provider.n_pairs))
        a_eq = COOMatrix(
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
            (self.num_balance + len(self.providers), self.num_vars),
        )
        b_eq = np.zeros(self.num_balance + len(self.providers))
        b_eq[self.num_balance:] = 1.0
        return a_eq, b_eq

    def _assemble_inequalities(
        self, bound_overrides: Optional[Dict[object, float]]
    ) -> Tuple[
        Optional[COOMatrix],
        Optional[np.ndarray],
        List[Tuple[object, np.ndarray, np.ndarray]],
    ]:
        ub_rows: List[Tuple[object, np.ndarray, np.ndarray, float]] = []
        for key, names, bound in self._vector_rows:
            cols_parts: List[np.ndarray] = []
            vals_parts: List[np.ndarray] = []
            for b, name in enumerate(names):
                if name is None:
                    continue
                vec = self.providers[b].constraint_vector(name)
                nz = np.flatnonzero(vec)
                cols_parts.append(nz + self.pair_offsets[b])
                vals_parts.append(vec[nz])
            cols = (
                np.concatenate(cols_parts)
                if cols_parts
                else np.empty(0, dtype=np.int64)
            )
            vals = np.concatenate(vals_parts) if vals_parts else np.empty(0)
            ub_rows.append((key, cols, vals, bound))
        for key, cols, vals, bound in self._dict_rows:
            ub_rows.append((key, cols, vals, bound))
        if not ub_rows:
            return None, None, []
        if bound_overrides:
            ub_rows = [
                (key, cols, vals, bound_overrides.get(key, bound))
                for key, cols, vals, bound in ub_rows
            ]
        r = np.concatenate(
            [
                np.full(len(cols), i, dtype=np.int64)
                for i, (_k, cols, _v, _b) in enumerate(ub_rows)
            ]
        )
        c = np.concatenate([cols for (_k, cols, _v, _b) in ub_rows])
        v = np.concatenate([vals for (_k, _c, vals, _b) in ub_rows])
        a_ub = COOMatrix(r, c, v, (len(ub_rows), self.num_vars))
        b_ub = np.array([bound for (_k, _c, _v, bound) in ub_rows])
        return a_ub, b_ub, [(k, cols, vals) for (k, cols, vals, _b) in ub_rows]

    def cost_vector(self) -> np.ndarray:
        """Current weighted objective coefficients across all blocks."""
        return np.concatenate(
            [
                w * provider.cost_rates
                for provider, w in zip(self.providers, self.weights)
            ]
        )

    # ------------------------------------------------------------------

    def solve(
        self,
        bound_overrides: Optional[Dict[object, float]] = None,
        warm: bool = True,
    ) -> Tuple[SparseLPResult, Dict[object, float]]:
        """Assemble from current provider values and minimise the cost.

        Returns the raw backend result plus the achieved value of every
        inequality row.  ``bound_overrides`` replaces the stored bound of
        matching row keys for this solve only (the adaptive space-bound
        relaxation).  A successful solve stores its basis; ``warm=True``
        reuses it on the next call.

        Raises
        ------
        InfeasibleError
            If the program is infeasible.
        SolverError
            For any other backend failure.
        """
        cost = self.cost_vector()
        a_eq, b_eq = self._assemble_equalities()
        a_ub, b_ub, row_coeffs = self._assemble_inequalities(bound_overrides)
        result = solve_sparse_lp(
            cost,
            a_eq,
            b_eq,
            a_ub,
            b_ub,
            warm_basis=self._basis if warm else None,
        )
        if result.status == "infeasible":
            raise InfeasibleError(
                "occupation-measure LP is infeasible: " + result.message,
                status=result.status,
            )
        if result.status != "optimal":
            raise SolverError(
                "LP backend failed: " + result.message,
                status=result.status,
            )
        self._basis = result.basis
        x = np.clip(result.x, 0.0, None)
        achieved = {
            key: float(x[cols] @ vals) for key, cols, vals in row_coeffs
        }
        return result, achieved


class BlockLP:
    """A joint LP over several CTMDP blocks with shared linear constraints.

    This is the computational object behind the paper's split method: each
    bridge-separated subsystem contributes one block (its own balance
    equations and normalisation — *linear*), and the scarce total buffer
    budget contributes one shared row across all blocks.  Solving this LP
    solves "all the equations in one go and not sequentially for each
    subsystem", as Section 2 of the paper requires.
    """

    def __init__(self) -> None:
        self._models: List[CTMDP] = []
        self._weights: List[float] = []
        self._local_constraints: List[List[ConstraintSpec]] = []
        self._shared_constraints: List[
            Tuple[str, List[Dict[Tuple[State, Action], float]], float]
        ] = []

    # ------------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of CTMDP blocks added so far."""
        return len(self._models)

    def add_block(
        self,
        model: CTMDP,
        weight: float = 1.0,
        constraints: Sequence[ConstraintSpec] = (),
    ) -> int:
        """Add a CTMDP block; returns its index.

        ``weight`` scales the block's cost in the joint objective (the
        paper's "weighing of the loss at processors").
        """
        if weight < 0:
            raise SolverError(f"block weight must be >= 0, got {weight}")
        model.validate()
        self._models.append(model)
        self._weights.append(float(weight))
        self._local_constraints.append(list(constraints))
        return len(self._models) - 1

    def add_shared_constraint(
        self,
        name: str,
        coefficients: List[Dict[Tuple[State, Action], float]],
        bound: float,
    ) -> None:
        """Add ``sum_b sum_{s,a} coeff_b(s,a) x_b(s,a) <= bound``.

        ``coefficients`` must have one dict per existing block (empty dict
        for blocks that do not participate).
        """
        if len(coefficients) != self.num_blocks:
            raise SolverError(
                f"shared constraint {name!r} supplies {len(coefficients)} "
                f"coefficient maps for {self.num_blocks} blocks"
            )
        self._shared_constraints.append(
            (name, [dict(c) for c in coefficients], float(bound))
        )

    def add_shared_budget(
        self,
        name: str,
        constraint_name: str,
        bound: float,
    ) -> None:
        """Shared constraint built from each block's named constraint rates.

        Convenience for the common case "the sum over all subsystems of
        the expected occupied buffer space is at most the budget": uses
        ``model.constraint_rate(constraint_name, s, a)`` as coefficients
        in every block.
        """
        coefficients = []
        for model in self._models:
            comp = model.compiled()
            vec = comp.constraint_vector(constraint_name)
            nz = np.flatnonzero(vec)
            coefficients.append(
                {comp.pairs[k]: float(vec[k]) for k in nz}
            )
        self.add_shared_constraint(name, coefficients, bound)

    # ------------------------------------------------------------------

    def compile(self) -> BlockProgram:
        """Freeze the sparse structure into a reusable BlockProgram."""
        if not self._models:
            raise SolverError("BlockLP has no blocks")
        providers = [m.compiled() for m in self._models]
        program = BlockProgram(providers, self._weights)
        for b, specs in enumerate(self._local_constraints):
            for spec in specs:
                names: List[Optional[str]] = [None] * len(providers)
                names[b] = spec.name
                program.add_vector_row((b, spec.name), names, spec.bound)
        for name, coefficient_maps, bound in self._shared_constraints:
            cols: List[int] = []
            vals: List[float] = []
            for b, cmap in enumerate(coefficient_maps):
                if not cmap:
                    continue
                pair_index = providers[b].pair_index()
                for pair, value in cmap.items():
                    if pair not in pair_index:
                        raise SolverError(
                            f"shared constraint {name!r} references unknown "
                            f"state-action {pair!r} in block {b}"
                        )
                    if value != 0.0:
                        cols.append(
                            int(program.pair_offsets[b]) + pair_index[pair]
                        )
                        vals.append(value)
            program.add_dict_row(
                name,
                np.asarray(cols, dtype=np.int64),
                np.asarray(vals, dtype=float),
                bound,
            )
        return program

    def solve(self) -> LPSolution:
        """Assemble and solve (minimise) the joint LP with HiGHS.

        Raises
        ------
        InfeasibleError
            If the joint problem is infeasible (e.g. the shared budget is
            below what the balance equations force).
        SolverError
            For any other backend failure.
        """
        program = self.compile()
        result, achieved = program.solve(warm=False)
        x = np.clip(result.x, 0.0, None)
        occupations: List[Dict[Tuple[State, Action], float]] = []
        policies: List[StationaryPolicy] = []
        block_costs: List[float] = []
        for b, model in enumerate(self._models):
            comp = program.providers[b]
            xb = x[program.pair_offsets[b]:program.pair_offsets[b + 1]]
            occ = {
                pair: float(xb[k]) for k, pair in enumerate(comp.pairs)
            }
            occupations.append(occ)
            policies.append(policy_from_occupation_measure(model, occ))
            block_costs.append(float(xb @ comp.cost_rates))
        return LPSolution(
            objective=float(result.objective),
            occupations=occupations,
            policies=policies,
            block_costs=block_costs,
            constraint_values=achieved,
            iterations=result.iterations,
        )
