"""Budget-sweep scheduler: warm-started chains of sizing runs.

The paper's Table 1 and the extension studies all sweep
:class:`~repro.core.sizing.BufferSizer` over a budget axis.  Solved
cold, every budget pays the full bridge fixed point from the offered
rates.  Solved as a *chain*, budget ``b + 1`` starts its fixed point at
budget ``b``'s converged bridge rates — usually one outer iteration
instead of several — and, when the LP structure is unchanged across the
sweep (fixed ``capacity_cap``), re-uses the previous optimal simplex
basis too.

Warm starting changes only the *initial iterate* of a fixed point that
runs to the same tolerance, so on most cells the sweep produces the
same allocations as per-budget cold solves (asserted on the Figure 1
axis by the test suite and ``benchmarks/bench_exec_runtime.py``).  It
is not a guarantee.  Where an LP block is degenerate (several optimal
occupation measures), the warm basis can land on another optimal
vertex: on single-bus-6 at budgets 36 and 48 warm and cold allocations
differ although every run converges.  A run that exhausts
``max_fixed_point_iterations`` returns whatever iterate it reached,
which depends on the start — such results are flagged
(``SizingResult.converged == False``) and never cached.
``warm_start=False`` forces cold solves — and, because cold points are
independent, lets them fan out over a process pool.  Whether that is
faster depends on the axis: ``docs/execution.md`` has the measurements.

Results are content-addressed through an optional
:class:`~repro.exec.cache.ResultCache`: the key covers the topology,
the budget and every sizer knob, but *not* the solve path (warm/cold,
serial/pooled).  So on a degenerate cell the cached allocation is
whichever path ran first.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.sizing import BufferSizer, SizingResult, WarmStartState
from repro.errors import ReproError
from repro.exec.cache import ResultCache, topology_fingerprint
from repro.exec.pool import parallel_map


@lru_cache(maxsize=1)
def _sizer_defaults() -> Dict[str, Any]:
    """Default values of every optional :class:`BufferSizer` argument.

    Read off the live signature so cache keys stay caller-independent:
    passing a default explicitly (``damping=1.0``) and omitting
    it must hash identically (same rationale as the replication-key
    normalisation in :mod:`repro.exec`).
    """
    return {
        name: param.default
        for name, param in inspect.signature(
            BufferSizer.__init__
        ).parameters.items()
        if param.default is not inspect.Parameter.empty
    }


def sizing_payload(
    topology,
    budget: int,
    sizer_kwargs: Optional[dict],
    scope: Optional[Any] = None,
) -> Dict[str, Any]:
    """Cache payload fully determining one sizing run's result.

    ``scope`` is the optional scenario scope (see
    :meth:`repro.exec.ExecutionContext.scoped`): when set it becomes
    part of the payload, so two scenarios never share sizing entries;
    ``None`` keeps the payload — hence the key — unscoped.
    """
    payload: Dict[str, Any] = {
        "topology": topology_fingerprint(topology),
        "budget": int(budget),
        "sizer_kwargs": {**_sizer_defaults(), **(sizer_kwargs or {})},
    }
    if scope is not None:
        payload["scenario"] = scope
    return payload


def sizing_result_cacheable(result: SizingResult) -> bool:
    """Whether a sizing result is a pure function of its cache payload.

    A fixed point that exhausted its iteration budget returns whatever
    iterate it reached — start-dependent, so never stored.  Converged
    results are stored, and an entry reflects whichever path populated
    it first: diagnostic fields (``fixed_point_iterations``, LP
    internals, blocking estimates) agree across paths only to
    fixed-point tolerance, and on a cell whose LP block is degenerate
    the *allocation* itself can differ between the warm chain and a
    cold solve (docs/execution.md, "When warm starting pays").
    """
    return bool(result.converged)


def _size_cold(job: Tuple[Any, int, dict]) -> SizingResult:
    """Pool worker: one independent cold sizing solve."""
    topology, budget, sizer_kwargs = job
    return BufferSizer(total_budget=budget, **sizer_kwargs).size(topology)


@dataclass
class SweepPointOutcome:
    """One budget of a sweep: the result plus how it was obtained."""

    budget: int
    result: SizingResult
    warm_started: bool
    from_cache: bool


@dataclass
class BudgetSweepOutcome:
    """All points of one budget sweep, in request order."""

    points: List[SweepPointOutcome]

    def result_for(self, budget: int) -> SizingResult:
        """The sizing result of one budget."""
        for point in self.points:
            if point.budget == budget:
                return point.result
        raise ReproError(f"budget {budget} was not part of the sweep")

    def allocations(self) -> Dict[int, Dict[str, int]]:
        """``budget -> integer allocation`` over the whole sweep."""
        return {p.budget: dict(p.result.allocation.sizes) for p in self.points}

    @property
    def total_fixed_point_iterations(self) -> int:
        """Outer iterations summed over freshly solved budgets.

        Cache hits contribute nothing (no solve happened), and a budget
        requested twice is solved — hence counted — once; the warm-vs-
        cold benchmark runs uncached so this is the comparison metric.
        """
        seen = set()
        total = 0
        for p in self.points:
            if p.from_cache or p.budget in seen:
                continue
            seen.add(p.budget)
            total += p.result.fixed_point_iterations
        return total


def sweep_budgets(
    topology,
    budgets: Sequence[int],
    sizer_kwargs: Optional[dict] = None,
    warm_start: bool = True,
    cache: Optional[ResultCache] = None,
    jobs: int = 1,
    scope: Optional[Any] = None,
    executor: Optional[Any] = None,
    on_result: Optional[Callable[[int, SizingResult], None]] = None,
) -> BudgetSweepOutcome:
    """Size one topology at several budgets, chaining warm starts.

    Parameters
    ----------
    topology:
        The architecture to size (shared by every point).
    budgets:
        Budget axis, visited in the given order (adjacent budgets make
        the best warm-start neighbours; callers usually pass them
        sorted).
    sizer_kwargs:
        Extra :class:`BufferSizer` arguments applied at every point.
        Fixing ``capacity_cap`` here keeps the LP structure identical
        across budgets, enabling basis re-use on top of rate carry-over.
    warm_start:
        Chain converged bridge rates (and a compatible LP basis) from
        each budget into the next.  ``False`` solves every point cold.
    cache:
        Optional content-addressed result store; hits skip the solve.
    jobs:
        With ``warm_start=False``, uncached points fan out over a
        process pool (a warm chain is inherently sequential, so ``jobs``
        is ignored when warm starting).
    scope:
        Optional scenario scope added to every point's cache payload
        (see :func:`sizing_payload`).
    executor:
        Optional remote executor (:class:`repro.dist.DistExecutor`)
        the cold fan-out runs on instead of the local pool; like
        ``jobs``, it is ignored while warm starting (the chain is
        inherently sequential) and cannot change any result.
    on_result:
        Optional ``on_result(budget, result)`` progress callback,
        fired once per unique budget as its result becomes known —
        cache hits at lookup time, fresh solves as they complete (in
        axis order).
    """
    if not budgets:
        raise ReproError("budget sweep needs at least one budget")
    sizer_kwargs = dict(sizer_kwargs or {})
    budgets = [int(b) for b in budgets]
    unique_budgets = list(dict.fromkeys(budgets))

    cached: Dict[int, SizingResult] = {}
    if cache is not None:
        keys = {
            budget: cache.key(
                "sizing",
                sizing_payload(topology, budget, sizer_kwargs, scope=scope),
            )
            for budget in unique_budgets
        }
        for budget in unique_budgets:
            hit, value = cache.lookup(keys[budget])
            if hit:
                cached[budget] = value
                if on_result is not None:
                    on_result(budget, value)

    fresh: Dict[int, SizingResult] = {}
    warm_used: Dict[int, bool] = {}
    to_solve = [b for b in unique_budgets if b not in cached]
    if warm_start:
        state: Optional[WarmStartState] = None
        for i, budget in enumerate(to_solve):
            sizer = BufferSizer(total_budget=budget, **sizer_kwargs)
            result, state = sizer.size_warm(topology, state)
            fresh[budget] = result
            warm_used[budget] = i > 0
            if on_result is not None:
                on_result(budget, result)
    elif to_solve:
        results = parallel_map(
            _size_cold,
            [(topology, budget, sizer_kwargs) for budget in to_solve],
            jobs=jobs,
            executor=executor,
            on_result=(
                None
                if on_result is None
                else lambda i, result: on_result(to_solve[i], result)
            ),
        )
        for budget, result in zip(to_solve, results):
            fresh[budget] = result
            warm_used[budget] = False

    if cache is not None:
        for budget, result in fresh.items():
            if sizing_result_cacheable(result):
                cache.put(keys[budget], result)

    points = []
    for budget in budgets:
        if budget in cached:
            points.append(
                SweepPointOutcome(
                    budget=budget,
                    result=cached[budget],
                    warm_started=False,
                    from_cache=True,
                )
            )
        else:
            points.append(
                SweepPointOutcome(
                    budget=budget,
                    result=fresh[budget],
                    warm_started=warm_used[budget],
                    from_cache=False,
                )
            )
    return BudgetSweepOutcome(points=points)
