"""``repro.exec`` — the experiment-execution runtime.

Every experiment driver (figure3, table1, the extensions and ablations)
is built from two expensive primitives: replication batches of
:func:`repro.sim.runner.simulate` and budget sweeps of
:class:`repro.core.sizing.BufferSizer`.  This package is the layer that
schedules, caches and merges those primitives without changing a single
number they produce:

* :mod:`repro.exec.pool` — deterministic process-pool fan-out with an
  ordered merge (``jobs=N`` is bitwise-identical to ``jobs=1``);
* :mod:`repro.exec.sweeps` — budget-sweep chaining with bridge-rate and
  LP-basis warm starts (fewer fixed-point iterations to the same
  tolerance as cold solves, but not always faster, and a degenerate
  cell can allocate differently: docs/execution.md, "When warm
  starting pays");
* :mod:`repro.exec.cache` — a disk-backed content-addressed result
  store keyed by topology + configuration + code version.

:class:`ExecutionContext` bundles the runtime knobs (``jobs``,
``cache``, ``warm_start``, ``scenario``) into the single object the
drivers and the CLI pass around.  The default context is serial,
uncached and warm; replication batches always run on the mega-batch
kernel (:func:`repro.sim.runner.simulate_block`).
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.exec.cache import ResultCache, topology_fingerprint
from repro.exec.pool import parallel_map, resolve_jobs

__all__ = [
    "ExecutionContext",
    "ResultCache",
    "BudgetSweepOutcome",
    "SweepPointOutcome",
    "parallel_map",
    "resolve_jobs",
    "sweep_budgets",
    "topology_fingerprint",
]

#: Names re-exported from :mod:`repro.exec.sweeps`.  Resolved lazily
#: (PEP 562): sweeps imports the sizing pipeline, which transitively
#: imports the simulator, whose runner imports :mod:`repro.exec.pool` —
#: an import cycle if sweeps loaded eagerly here.
_SWEEP_EXPORTS = (
    "BudgetSweepOutcome",
    "SweepPointOutcome",
    "sizing_payload",
    "sweep_budgets",
)


def __getattr__(name: str):
    if name in _SWEEP_EXPORTS:
        from repro.exec import sweeps

        return getattr(sweeps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=1)
def _replicate_defaults() -> Dict[str, Any]:
    """Default values of every replication-batch kwarg.

    Read off the live signatures of ``simulate`` and ``replicate`` so
    cache keys stay in sync with the code: a batch requested with
    explicit defaults (``seed_scheme="legacy"``) and one relying on the
    omitted defaults must hash identically, or callers that spell their
    calls differently (CLI vs ``compare_policies``) silently never
    share cache entries.  ``seed`` is simulate's per-run seed (derived
    by replicate, not a batch kwarg); ``jobs``/``executor`` cannot
    change the result (the pool/fleet determinism contract) and
    ``on_result`` is pure observation — all are excluded, keeping keys
    identical across local, pooled and distributed runs.
    """
    from repro.sim import runner

    merged: Dict[str, Any] = {}
    for fn in (runner.simulate, runner.replicate):
        for name, param in inspect.signature(fn).parameters.items():
            if param.default is not inspect.Parameter.empty:
                merged[name] = param.default
    for excluded in ("seed", "jobs", "executor", "on_result"):
        merged.pop(excluded, None)
    return merged


@dataclass
class ExecutionContext:
    """How to execute an experiment: parallelism, caching, warm starts.

    Attributes
    ----------
    jobs:
        Worker processes for replication batches and cold sweep points
        (``1`` = serial reference path, ``0``/``None`` = all cores).
    cache:
        Optional :class:`ResultCache`; sizing results and replication
        summaries are memoised under content-addressed keys.
    warm_start:
        Chain budget sweeps through converged bridge rates / LP bases
        (the ``--no-warm-start`` escape hatch clears this).
    scenario:
        Optional scenario scope (``ScenarioSpec.cache_scope()`` or any
        canonicalisable value).  When set, every cache payload this
        context builds carries it, so cached sizing/replication results
        are scoped per scenario; ``None`` (the default) leaves payloads
        unscoped.
    executor:
        Optional remote executor (:class:`repro.dist.DistExecutor`):
        replication batches and cold sweep fan-outs run on the fleet
        instead of the local pool.  Like ``jobs`` it cannot change any
        result (the distributed merge is by submission index) and is
        excluded from every cache key.
    progress:
        Optional ``progress(kind, key)`` observer, called once per
        completed unit — ``("replication", index)`` per simulation run,
        ``("sizing", budget)`` per sweep point.  The CLI's
        ``--progress`` and the fleet driver plug printers in here;
        pure observation, never part of a cache key.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    warm_start: bool = True
    scenario: Optional[Any] = None
    executor: Optional[Any] = None
    progress: Optional[Any] = None

    def __post_init__(self) -> None:
        # Accept a ScenarioSpec anywhere a scope is accepted: the raw
        # spec carries callables the cache hasher cannot canonicalise.
        if hasattr(self.scenario, "cache_scope"):
            self.scenario = self.scenario.cache_scope()

    @classmethod
    def create(
        cls,
        jobs: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        warm_start: bool = True,
        cache_max_mb: Optional[float] = None,
        scenario: Optional[Any] = None,
        dist: Optional[str] = None,
        dist_authkey: Optional[str] = None,
        progress: Optional[Any] = None,
    ) -> "ExecutionContext":
        """Build a context from plain CLI-style values.

        ``cache_max_mb`` bounds the cache directory (LRU eviction, in
        MiB); it requires ``cache_dir``.  ``scenario`` accepts the same
        values as :meth:`scoped` (a ``ScenarioSpec`` or a plain scope).
        ``dist`` is a broker address (``"host:port"``, the CLI's
        ``--dist``): batches fan out over that fleet via a
        :class:`repro.dist.DistExecutor` instead of the local pool,
        authenticated with ``dist_authkey`` (``--authkey``) when given.
        """
        if cache_max_mb is not None and cache_dir is None:
            raise ReproError("cache_max_mb requires a cache directory")
        max_bytes = (
            int(cache_max_mb * 1024 * 1024)
            if cache_max_mb is not None
            else None
        )
        executor = None
        if dist is not None:
            from repro.dist import DistExecutor

            dist_kwargs: Dict[str, Any] = {}
            if dist_authkey is not None:
                dist_kwargs["authkey"] = dist_authkey.encode("utf-8")
            executor = DistExecutor(dist, **dist_kwargs)
        context = cls(
            jobs=resolve_jobs(jobs),
            cache=(
                ResultCache(cache_dir, max_bytes=max_bytes)
                if cache_dir
                else None
            ),
            warm_start=bool(warm_start),
            executor=executor,
            progress=progress,
        )
        return context if scenario is None else context.scoped(scenario)

    # ------------------------------------------------------------------

    def scoped(self, scenario: Any) -> "ExecutionContext":
        """A copy of this context scoped to one scenario's cache keys.

        ``scenario`` may be a :class:`~repro.scenarios.ScenarioSpec`
        (its :meth:`~repro.scenarios.ScenarioSpec.cache_scope` is
        taken) or a plain canonicalisable value.  The cache object and
        its hit/miss counters are shared with the parent context; only
        the key scope changes.  Scoping is idempotent — re-scoping to
        the same scenario returns ``self``.
        """
        scope = (
            scenario.cache_scope()
            if hasattr(scenario, "cache_scope")
            else scenario
        )
        if scope == self.scenario:
            return self
        return dataclasses.replace(self, scenario=scope)

    def size(
        self,
        topology,
        budget: int,
        sizer_kwargs: Optional[dict] = None,
    ):
        """One cached CTMDP sizing run (`SizingResult`)."""
        from repro.core.sizing import BufferSizer
        from repro.exec.sweeps import sizing_payload, sizing_result_cacheable

        def compute():
            return BufferSizer(
                total_budget=budget, **(sizer_kwargs or {})
            ).size(topology)

        if self.cache is None:
            return compute()
        return self.cache.fetch(
            "sizing",
            sizing_payload(topology, budget, sizer_kwargs, scope=self.scenario),
            compute,
            should_store=sizing_result_cacheable,
        )

    def sweep(self, topology, budgets, sizer_kwargs=None):
        """A budget sweep under this context's warm/cache/jobs policy
        (`BudgetSweepOutcome`)."""
        from repro.exec.sweeps import sweep_budgets

        on_result = None
        if self.progress is not None:
            progress = self.progress
            on_result = lambda budget, result: progress("sizing", budget)
        return sweep_budgets(
            topology,
            budgets,
            sizer_kwargs=sizer_kwargs,
            warm_start=self.warm_start,
            cache=self.cache,
            jobs=self.jobs,
            scope=self.scenario,
            executor=self.executor,
            on_result=on_result,
        )

    def replicate(self, topology, capacities: Dict[str, int], **kwargs):
        """A cached, pooled replication batch (`ReplicationSummary`).

        Accepts exactly the keyword arguments of
        :func:`repro.sim.runner.replicate`; ``jobs`` is injected from
        the context.  The cache key covers everything that determines
        the statistics — never ``jobs``, which by the pool's
        determinism contract cannot change them.
        """
        from repro.sim.runner import replicate

        # Execution-path knobs never reach the cache payload: they are
        # pure observation (on_result) or answer-preserving (executor,
        # jobs) by the pool/fleet determinism contract.
        executor = kwargs.pop("executor", self.executor)
        on_result = kwargs.pop("on_result", None)
        if on_result is None and self.progress is not None:
            progress = self.progress
            on_result = lambda index, result: progress("replication", index)

        def compute():
            return replicate(
                topology,
                capacities,
                jobs=self.jobs,
                executor=executor,
                on_result=on_result,
                **kwargs,
            )

        if self.cache is None:
            return compute()
        # Normalise against the functions' defaults so the key is
        # caller-independent: explicitly passing a default value and
        # omitting it must address the same entry.
        batch_kwargs = {**_replicate_defaults(), **kwargs}
        payload: Dict[str, Any] = {
            "topology": topology_fingerprint(topology),
            "capacities": {k: int(v) for k, v in capacities.items()},
            "kwargs": {k: batch_kwargs[k] for k in sorted(batch_kwargs)},
        }
        if self.scenario is not None:
            payload["scenario"] = self.scenario
        key = self.cache.key("replicate", payload)
        hit, value = self.cache.lookup(key)
        if hit:
            # A cached batch still streams its per-replication events
            # (mirroring sweep_budgets, whose cache hits fire too), so
            # an observer can't mistake a hit for a stall.
            if on_result is not None:
                for index, result in enumerate(value.results):
                    on_result(index, result)
            return value
        value = compute()
        self.cache.put(key, value)
        return value
