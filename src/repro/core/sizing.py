"""End-to-end CTMDP buffer sizing (the paper's full pipeline).

:class:`BufferSizer` wires everything together:

1. **Split** the bridged architecture into linear subsystems
   (:mod:`repro.core.splitting`), inserting a buffer at every used
   bridge direction.
2. **Model** each subsystem as a CTMDP: the exact joint occupancy model
   when the state space is small enough, the decomposed per-client model
   with a shared bus-time row otherwise (:mod:`repro.core.bus_model`).
3. **Solve one joint LP** over all subsystems — "all the equations ...
   in one go and not sequentially" — with a single shared buffer-space
   row tying the blocks to the scarce total budget
   (:class:`repro.core.lp.BlockProgram`).
4. **Iterate the bridge-rate fixed point**: recompute carried rates into
   every bridge buffer from the blocking probabilities of the latest
   solution, refresh, resolve, until rates converge.
5. **Translate** the final occupation measures into an integer
   allocation via the K-switching machinery
   (:mod:`repro.core.kswitching`).

The pipeline runs on the compiled kernel layer
(:mod:`repro.core.compiled`): each joint subsystem is built once as a
:class:`~repro.core.compiled.CompiledBusLattice`, the joint LP structure
is assembled once into a :class:`~repro.core.lp.BlockProgram`, and each
bridge-rate iteration only refreshes arrival-rate coefficients and
re-solves from the previous optimal basis.  The tests hold this loop
against itself solved cold at every step, and its LP against the one
:class:`~repro.core.lp.BlockLP` assembles from the dict-built CTMDPs.

The result plugs directly into the simulator:
``simulate(topology, result.allocation.as_capacities(), ...)`` — the
paper's "the system is resimulated with the new buffer lengths and the
losses are compared".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.arch.topology import Topology
from repro.core.bus_model import BUS_TIME, SPACE, BusClient
from repro.core.compiled import CompiledBusLattice, CompiledClientChain
from repro.core.kswitching import ClientDemand, allocate_greedy
from repro.core.lp import BlockProgram, LPSolution
from repro.core.splitting import (
    SplitSystem,
    Subsystem,
    bridge_arrival_rates,
    split,
)
from repro.errors import InfeasibleError, SolverError

#: Default joint-model state-count threshold; above it a subsystem's
#: per-client model depth shrinks (and below depth 2 it falls back to
#: decomposed per-client chains).  2000 keeps a five-client subsystem at
#: depth 3 (1024 states), which solves in well under a second via
#: interior point while losing almost nothing versus deeper lattices
#: (the tails are extrapolated geometrically either way).
DEFAULT_JOINT_STATE_LIMIT = 2000

#: The bridge fixed point has converged once no bridge-entry rate moved
#: by this much in one step.
FIXED_POINT_TOL = 1e-3


@dataclass
class BufferAllocation:
    """An integer buffer allocation over all clients.

    ``sizes`` maps processor names and bridge-entry buffer names (the
    simulator's client vocabulary) to slot counts.
    """

    sizes: Dict[str, int]
    budget: int

    def __post_init__(self) -> None:
        for name, size in self.sizes.items():
            if size < 0:
                raise SolverError(
                    f"allocation gives {name!r} negative size {size}"
                )

    @property
    def total(self) -> int:
        """Total slots allocated."""
        return sum(self.sizes.values())

    def as_capacities(self) -> Dict[str, int]:
        """Plain dict for :func:`repro.sim.runner.simulate`."""
        return dict(self.sizes)


@dataclass
class WarmStartState:
    """Carry-over state between consecutive sizing runs.

    Produced by :meth:`BufferSizer.size_warm` and fed back into the next
    call of a budget sweep: ``bridge_rates`` are the converged carried
    rates of the bridge fixed point (a far better starting iterate for a
    nearby budget than the offered rates), and ``basis`` is the final
    optimal LP basis (reused only when the next program's
    ``structure_signature`` matches, i.e. fixed capacities across the
    sweep).  The state holds live backend objects and is deliberately
    **not** picklable/cacheable — it exists only to chain in-process
    solves.
    """

    bridge_rates: Dict[str, float] = field(default_factory=dict)
    basis: Optional[object] = None
    structure: Optional[Tuple[int, int, int]] = None


@dataclass
class SizingResult:
    """Everything the sizing pipeline produced.

    Attributes
    ----------
    allocation:
        The integer buffer allocation (sums exactly to the budget).
    expected_loss_rate:
        The joint LP objective at the converged fixed point: the
        model-predicted weighted loss rate per unit time.
    marginals:
        Per-client stationary queue-length marginals from the LP.
    blocking:
        Per-client full-buffer probabilities at the model capacity cap.
    fixed_point_iterations:
        Outer bridge-rate iterations performed.
    converged:
        Whether the bridge fixed point met :data:`FIXED_POINT_TOL` (False
        when the loop exhausted ``max_fixed_point_iterations``).  A
        non-converged result depends on the starting iterate, so the
        runtime's warm-vs-cold equivalence only holds when this is True
        (the cache refuses to store non-converged results).
    space_bound_used:
        The expected-space bound of the final LP (after any adaptive
        relaxation).
    lp_solution:
        Full LP solution (occupations, no policies) of the final solve.
    split_system:
        The subsystem decomposition (with converged bridge rates).
    """

    allocation: BufferAllocation
    expected_loss_rate: float
    marginals: Dict[str, np.ndarray]
    blocking: Dict[str, float]
    fixed_point_iterations: int
    space_bound_used: float
    lp_solution: LPSolution
    split_system: SplitSystem
    converged: bool = True

    def predicted_total_loss_rate(self) -> float:
        """End-to-end predicted loss rate from the flow-thinning view.

        Unlike :attr:`expected_loss_rate` (the joint LP objective, which
        evaluates losses at the *model* capacities), this accumulates each
        flow's loss across its hops using the fixed point's per-client
        blocking estimates — the quantity that is directly comparable
        across budgets and to simulation.
        """
        total = 0.0
        for flow_name, hops in self.split_system.flow_hops.items():
            rate = self.split_system.topology.flows[flow_name].rate
            surviving = rate
            for hop in hops:
                b = self.blocking.get(hop.client, 0.0)
                surviving *= 1.0 - min(max(b, 0.0), 1.0)
            total += rate - surviving
        return total


class _SizingProgram:
    """The compiled joint LP of one sizing run.

    Built once per :meth:`BufferSizer.size` call: joint subsystems become
    refreshable :class:`CompiledBusLattice` blocks, oversized subsystems
    become refreshable per-client :class:`CompiledClientChain` blocks,
    and the shared budget/bus-time rows are vector rows re-read from the
    blocks on every solve.  The bridge-rate fixed point then only calls
    :meth:`refresh` + :meth:`solve_adaptive` — no block is ever rebuilt
    unless its zero/positive rate pattern changes — warm-starting each
    LP from the previous optimal basis.
    """

    def __init__(
        self, sizer: "BufferSizer", split_system: SplitSystem, cap: int
    ) -> None:
        self.sizer = sizer
        self.cap = cap
        # Entries: (subsystem, kind, model_clients, block_indices).
        self.entries: List[Tuple[Subsystem, str, List[BusClient], List[int]]] = []
        providers: List[object] = []
        bus_time_rows: List[Tuple[int, List[int]]] = []
        for sub in split_system.subsystems:
            if not sub.clients:
                # A cluster no flow touches needs no buffers and
                # contributes nothing to the LP.
                continue
            model_cap = sizer._model_cap(len(sub.clients), cap)
            if model_cap is not None:
                model_clients = [
                    c.with_capacity(model_cap) for c in sub.clients
                ]
                block = len(providers)
                providers.append(CompiledBusLattice(model_clients))
                self.entries.append((sub, "joint", model_clients, [block]))
            else:
                chain_cap = min(cap, 30)
                model_clients = [
                    c.with_capacity(chain_cap) for c in sub.clients
                ]
                blocks = []
                for client in model_clients:
                    blocks.append(len(providers))
                    providers.append(self._chain_provider(client))
                self.entries.append((sub, "chain", model_clients, blocks))
                bus_time_rows.append((sub.index, blocks))
        self.program = BlockProgram(providers, [1.0] * len(providers))
        for sub_index, blocks in bus_time_rows:
            names: List[Optional[str]] = [None] * len(providers)
            for b in blocks:
                names[b] = BUS_TIME
            self.program.add_vector_row(
                f"bus_time[{sub_index}]", names, 1.0
            )
        self.program.add_vector_row(
            "budget", [SPACE] * len(providers), 0.0
        )

    @staticmethod
    def _chain_holding(client: BusClient) -> float:
        """The degeneracy-breaking holding cost of one chain block."""
        return 1e-5 * (client.loss_weight * client.arrival_rate + 1.0)

    @classmethod
    def _chain_provider(cls, client: BusClient) -> CompiledClientChain:
        return CompiledClientChain(
            client, holding_cost_rate=cls._chain_holding(client)
        )

    # ------------------------------------------------------------------

    def refresh(self, split_system: SplitSystem) -> None:
        """Pull the current arrival rates into every block."""
        sub_by_index = {sub.index: sub for sub in split_system.subsystems}
        for e, (old_sub, kind, old_clients, blocks) in enumerate(self.entries):
            sub = sub_by_index[old_sub.index]
            rates = {c.name: c.arrival_rate for c in sub.clients}
            if kind == "joint":
                model_clients = [
                    old.with_arrival_rate(rates.get(old.name, old.arrival_rate))
                    for old in old_clients
                ]
                lattice = self.program.providers[blocks[0]]
                if not lattice.refresh(rates):
                    # The zero/positive rate pattern changed — rebuild.
                    lattice = CompiledBusLattice(model_clients)
                    self.program.providers[blocks[0]] = lattice
                self.entries[e] = (sub, kind, model_clients, blocks)
            else:
                model_clients = [
                    old.with_arrival_rate(rates.get(old.name, old.arrival_rate))
                    for old in old_clients
                ]
                for client, b in zip(model_clients, blocks):
                    chain = self.program.providers[b]
                    if not chain.refresh(
                        client.arrival_rate, self._chain_holding(client)
                    ):
                        # Zero/positive rate pattern changed — rebuild.
                        self.program.providers[b] = self._chain_provider(
                            client
                        )
                self.entries[e] = (sub, kind, model_clients, blocks)

    def solve_adaptive(
        self, bound: float
    ) -> Tuple[np.ndarray, Dict[object, float], float, int]:
        """Solve, geometrically relaxing the space bound if infeasible.

        The expected-space bound can be infeasible when the budget is
        very tight relative to offered load (occupancy is forced by
        balance).  The paper's experiments live in exactly that regime at
        budget 160, so rather than fail we relax the bound and record the
        value used.
        """
        last_error: Optional[InfeasibleError] = None
        for _attempt in range(6):
            try:
                result, achieved = self.program.solve(
                    bound_overrides={"budget": bound}
                )
                return (
                    np.clip(result.x, 0.0, None),
                    achieved,
                    bound,
                    result.iterations,
                )
            except InfeasibleError as exc:
                last_error = exc
                bound *= 1.5
        raise InfeasibleError(
            "joint LP remained infeasible after relaxing the space bound; "
            f"last error: {last_error}"
        )

    # ------------------------------------------------------------------

    def marginals(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-client queue-length marginals of an occupation measure."""
        marginals: Dict[str, np.ndarray] = {}
        offsets = self.program.pair_offsets
        for _sub, kind, clients, blocks in self.entries:
            if kind == "joint":
                lattice = self.program.providers[blocks[0]]
                xb = x[offsets[blocks[0]]:offsets[blocks[0] + 1]]
                marginals.update(lattice.client_marginals(xb))
            else:
                for client, b in zip(clients, blocks):
                    comp = self.program.providers[b]
                    xb = x[offsets[b]:offsets[b + 1]]
                    p = np.bincount(
                        comp.pair_state,
                        weights=xb,
                        minlength=client.capacity + 1,
                    )
                    total = p.sum()
                    if total <= 0:
                        raise SolverError(
                            "occupation measure has no mass for client "
                            f"{client.name!r}"
                        )
                    marginals[client.name] = p / total
        return marginals

    def lp_solution(
        self,
        x: np.ndarray,
        achieved: Dict[object, float],
        iterations: int,
    ) -> LPSolution:
        """Package the final raw solution as an :class:`LPSolution`.

        Occupation dicts are materialised here once (they are only
        needed for the result object, not for the fixed point); policy
        extraction needs CTMDP objects the sizing loop never builds, so
        ``policies`` is empty.
        """
        offsets = self.program.pair_offsets
        occupations = []
        block_costs = []
        objective = 0.0
        for b, provider in enumerate(self.program.providers):
            xb = x[offsets[b]:offsets[b + 1]]
            occupations.append(
                {pair: float(xb[k]) for k, pair in enumerate(provider.pairs)}
            )
            cost = float(xb @ provider.cost_rates)
            block_costs.append(cost)
            objective += cost
        return LPSolution(
            objective=objective,
            occupations=occupations,
            policies=[],
            block_costs=block_costs,
            constraint_values=achieved,
            iterations=iterations,
        )


class BufferSizer:
    """Optimal buffer sizing via split subsystems and a joint LP.

    Parameters
    ----------
    total_budget:
        Total buffer slots to distribute over all processors and inserted
        bridge buffers.
    capacity_cap:
        Per-client upper bound defining the CTMDP lattices.  ``None``
        derives a heuristic from the budget and client count.
    joint_state_limit:
        Subsystems whose joint lattice exceeds this use the decomposed
        model.
    max_fixed_point_iterations:
        Bridge-rate outer loop bound; the loop stops earlier once it
        meets :data:`FIXED_POINT_TOL`.

    The LP bounds *expected* occupied space by the total budget, the
    paper's hard budget (expected occupancy can never exceed the
    physical slots anyway), and every client gets at least one slot.
    """

    def __init__(
        self,
        total_budget: int,
        capacity_cap: Optional[int] = None,
        joint_state_limit: int = DEFAULT_JOINT_STATE_LIMIT,
        max_fixed_point_iterations: int = 6,
    ) -> None:
        if total_budget < 1:
            raise SolverError(
                f"total budget must be >= 1, got {total_budget}"
            )
        self.total_budget = int(total_budget)
        self.capacity_cap = capacity_cap
        self.joint_state_limit = int(joint_state_limit)
        self.max_fixed_point_iterations = int(max_fixed_point_iterations)

    # ------------------------------------------------------------------

    def _derive_cap(self, topology: Topology) -> int:
        """Maximum model depth per client (upper bound; the per-subsystem
        lattice budget of :meth:`_model_cap` usually binds first)."""
        if self.capacity_cap is not None:
            if self.capacity_cap < 1:
                raise SolverError(
                    f"capacity cap must be >= 1, got {self.capacity_cap}"
                )
            return int(self.capacity_cap)
        probe = split(topology, 1)
        num_clients = len(probe.all_client_names())
        # Twice the fair share, clamped to something lattice-friendly.
        fair = max(2 * self.total_budget // max(num_clients, 1), 4)
        return int(min(fair, self.total_budget, 24))

    def _model_cap(self, num_clients: int, requested: int) -> Optional[int]:
        """Deepest per-client occupancy the joint lattice affords.

        Returns the largest ``c <= requested`` with
        ``(c + 1) ** num_clients <= joint_state_limit``, or ``None`` when
        even ``c = 2`` does not fit (the subsystem then falls back to the
        decomposed per-client model).
        """
        cap = min(
            requested,
            max(int(self.joint_state_limit ** (1.0 / num_clients)) - 1, 0),
        )
        while cap >= 2 and (cap + 1) ** num_clients > self.joint_state_limit:
            cap -= 1
        return cap if cap >= 2 else None

    @staticmethod
    def _extend_marginal(marginal: np.ndarray, length: int) -> np.ndarray:
        """Geometrically extrapolate a queue-length marginal.

        The joint model truncates each client at the model cap; beyond it
        the stationary law of a stable queue decays geometrically, so the
        tail is extended with the decay ratio observed at the top of the
        modelled range and renormalised.
        """
        m = np.clip(np.asarray(marginal, dtype=float), 0.0, None)
        if m.size >= length + 1:
            out = m[: length + 1]
            total = out.sum()
            return out / total if total > 0 else out
        if m.size >= 2 and m[-2] > 0:
            ratio = float(np.clip(m[-1] / m[-2], 0.0, 0.995))
        else:
            ratio = 0.0
        extra = length + 1 - m.size
        tail = m[-1] * ratio ** np.arange(1, extra + 1)
        out = np.concatenate([m, tail])
        total = out.sum()
        if total <= 0:
            raise SolverError("marginal extrapolation lost all mass")
        return out / total

    # ------------------------------------------------------------------

    def size(
        self,
        topology: Topology,
        warm_start: Optional[WarmStartState] = None,
    ) -> SizingResult:
        """Run the full pipeline on a topology.

        ``warm_start`` optionally seeds the bridge fixed point (and the
        LP basis, when structurally compatible) from a previous run —
        see :meth:`size_warm`, which also returns the carry-over state.

        Raises
        ------
        InfeasibleError
            If the budget cannot give every client one slot, or the LP
            stays infeasible after adaptive relaxation.
        """
        result, _state = self.size_warm(topology, warm_start)
        return result

    def size_warm(
        self,
        topology: Topology,
        warm_start: Optional[WarmStartState] = None,
    ) -> Tuple[SizingResult, WarmStartState]:
        """:meth:`size` plus the state that warm-starts the next run.

        The returned :class:`WarmStartState` carries the converged
        bridge rates and the final optimal LP basis.  Feeding it into the
        next ``size_warm`` call of a budget sweep starts that run's fixed
        point at the previous converged iterate, which often saves
        outer iterations.  The final :class:`SizingResult` meets the
        same fixed-point tolerance from any start, but it is not always
        the same result: on a degenerate LP block the warm basis can
        land on another optimal vertex, and so on another allocation
        (docs/execution.md, "When warm starting pays").
        """
        cap = self._derive_cap(topology)
        split_system = split(topology, cap)
        num_clients = len(split_system.all_client_names())
        if self.total_budget < num_clients:
            raise InfeasibleError(
                f"budget {self.total_budget} cannot give {num_clients} "
                f"clients 1 slot each"
            )
        if warm_start is not None and warm_start.bridge_rates:
            known = set()
            for sub in split_system.subsystems:
                known.update(sub.bridge_client_names)
            rates = {
                name: rate
                for name, rate in warm_start.bridge_rates.items()
                if name in known
            }
            if rates:
                split_system.subsystems = [
                    sub.with_rates(rates) for sub in split_system.subsystems
                ]
        return self._fixed_point(split_system, cap, num_clients, warm_start)

    @staticmethod
    def _bridge_rates_of(split_system: SplitSystem) -> Dict[str, float]:
        """Current bridge-entry arrival rates (the fixed-point iterate)."""
        rates: Dict[str, float] = {}
        for sub in split_system.subsystems:
            for name in sub.bridge_client_names:
                rates[name] = sub.client(name).arrival_rate
        return rates

    def _fixed_point_step(
        self,
        split_system: SplitSystem,
        marginals: Dict[str, np.ndarray],
        fair_share: int,
    ) -> Tuple[Dict[str, float], Dict[str, float], float]:
        """One bridge-rate update: blocking, new rates, max delta."""
        blocking: Dict[str, float] = {}
        for name, marg in marginals.items():
            k = min(fair_share, marg.size - 1)
            cdf = float(marg[: k + 1].sum())
            blocking[name] = float(marg[k]) / cdf if cdf > 0 else 1.0
        new_rates = bridge_arrival_rates(split_system, blocking)
        max_delta = 0.0
        current: Dict[str, float] = {}
        for sub in split_system.subsystems:
            for name in sub.bridge_client_names:
                current[name] = sub.client(name).arrival_rate
        for name, rate in new_rates.items():
            max_delta = max(max_delta, abs(rate - current.get(name, 0.0)))
        return blocking, new_rates, max_delta

    def _fixed_point(
        self,
        split_system: SplitSystem,
        cap: int,
        num_clients: int,
        warm_start: Optional[WarmStartState] = None,
    ) -> Tuple[SizingResult, WarmStartState]:
        """Bridge-rate fixed point on the compiled, warm-started program."""
        program = _SizingProgram(self, split_system, cap)
        if (
            warm_start is not None
            and warm_start.basis is not None
            and warm_start.structure == program.program.structure_signature
        ):
            program.program.seed_basis(warm_start.basis)
        fair_share = max(self.total_budget // num_clients, 1)
        initial_bound = float(self.total_budget)
        x: Optional[np.ndarray] = None
        achieved: Dict[object, float] = {}
        bound_used = initial_bound
        lp_iterations = 0
        marginals: Dict[str, np.ndarray] = {}
        iterations = 0
        converged = False
        with obs.span("solver.fixed_point") as fp_span:
            for iterations in range(1, self.max_fixed_point_iterations + 1):
                with obs.span("solver.lp_solve") as lp_span:
                    lp_span.set("iteration", iterations)
                    (
                        x,
                        achieved,
                        bound_used,
                        lp_iterations,
                    ) = program.solve_adaptive(initial_bound)
                obs.counter("solver.lp_solves").inc()
                marginals = {
                    name: self._extend_marginal(marg, self.total_budget)
                    for name, marg in program.marginals(x).items()
                }
                _blocking, rates, max_delta = self._fixed_point_step(
                    split_system, marginals, fair_share
                )
                if max_delta < FIXED_POINT_TOL:
                    converged = True
                    break
                split_system.subsystems = [
                    sub.with_rates(rates) for sub in split_system.subsystems
                ]
                # Refresh only when another solve will happen:
                # lp_solution below prices x with the providers' current
                # cost vectors, which must stay the ones x was solved
                # against.
                if iterations < self.max_fixed_point_iterations:
                    program.refresh(split_system)
            fp_span.set("iterations", iterations)
            fp_span.set("converged", converged)
        obs.histogram("solver.fixed_point_iterations").observe(iterations)
        if not converged:
            obs.counter("solver.fixed_point.unconverged").inc()
        assert x is not None  # loop runs at least once
        solution = program.lp_solution(x, achieved, lp_iterations)
        state = WarmStartState(
            bridge_rates=self._bridge_rates_of(split_system),
            basis=program.program.last_basis,
            structure=program.program.structure_signature,
        )
        return (
            self._finalise(
                split_system,
                solution,
                marginals,
                iterations,
                bound_used,
                converged,
            ),
            state,
        )

    def _finalise(
        self,
        split_system: SplitSystem,
        solution: LPSolution,
        marginals: Dict[str, np.ndarray],
        iterations: int,
        bound_used: float,
        converged: bool,
    ) -> SizingResult:
        """Translate the converged LP solution into the integer result."""
        demands = []
        for sub in split_system.subsystems:
            for client in sub.clients:
                demands.append(
                    ClientDemand(
                        name=client.name,
                        marginal=marginals[client.name],
                        arrival_rate=max(client.arrival_rate, 1e-12),
                        loss_weight=client.loss_weight,
                        max_size=self.total_budget,
                    )
                )
        sizes = allocate_greedy(demands, self.total_budget)
        allocation = BufferAllocation(sizes=sizes, budget=self.total_budget)
        # Final blocking estimates at the *allocated* sizes (the fixed
        # point above used a fair-share probe size; the allocation is now
        # known, so report the consistent truncated-law blocking).
        final_blocking: Dict[str, float] = {}
        for name, marg in marginals.items():
            k = min(sizes.get(name, 1), marg.size - 1)
            cdf = float(marg[: k + 1].sum())
            final_blocking[name] = float(marg[k]) / cdf if cdf > 0 else 1.0
        return SizingResult(
            allocation=allocation,
            expected_loss_rate=solution.objective,
            marginals=marginals,
            blocking=final_blocking,
            fixed_point_iterations=iterations,
            space_bound_used=bound_used,
            lp_solution=solution,
            split_system=split_system,
            converged=converged,
        )
