"""Module-level job functions the fleet ships to workers.

Distributed jobs are pickled *by reference* (module + name), so every
function here must be importable on both ends and a pure function of
its payload — same contract as :func:`repro.exec.pool.parallel_map`
workers, which is exactly what makes the distributed merge
bitwise-identical to the local one.

The one piece of ambient state is the **active cache**: the worker
loop installs its :class:`~repro.dist.cachetier.CacheTier` process-wide
before serving jobs, and :func:`run_blocks` builds its
:class:`~repro.exec.ExecutionContext` on whatever is installed
(``None`` on a plain local run).  The cache can only skip recomputing
pure results, so its presence or absence never changes a number —
that is asserted by the fleet equality tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro import obs, scenarios
from repro.exec import ExecutionContext
from repro.exec.cache import ResultStore


class ProcessMemo(ResultStore):
    """In-process fallback store behind the ``fetch`` cache interface.

    A local (non-fleet) matrix run has no worker tier installed, yet
    every replication block of a cell would otherwise repeat the same
    expensive sizing solve.  ``run_matrix`` installs one of these for
    the duration of a local run, deduplicating the solves within each
    process — the driver's serial loop, or each (forked) pool worker —
    under the same content addresses and the same ``should_store`` gate
    as the real tiers, so its presence can never change a number.
    Scoped to the run (installed before, uninstalled after), it can
    never grow past one run's distinct cells.
    """

    def __init__(self) -> None:
        self._store: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    # The full store interface (key/lookup/put/fetch), so a memo-backed
    # context supports every runtime path — sweeps and replicate
    # address the store piecewise, not only through fetch.

    def lookup(self, key):
        if key in self._store:
            self.hits += 1
            return True, self._store[key]
        self.misses += 1
        return False, None

    def put(self, key, value) -> None:
        self._store[key] = value


#: Process-wide cache the worker loop installs (a CacheTier), consulted
#: by every fleet job running in this process.
_ACTIVE_CACHE: Optional[Any] = None


def set_active_cache(cache: Optional[Any]) -> Optional[Any]:
    """Install the process-wide job cache; returns the previous one."""
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    return previous


def active_cache() -> Optional[Any]:
    """The cache fleet jobs in this process currently run against."""
    return _ACTIVE_CACHE


def echo(item: Any) -> Any:
    """Identity job — the queue-overhead benchmark and smoke tests."""
    return item


def sleep_block(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Sleep for the payload's ``duration`` — a synthetic fleet cell.

    The makespan benchmark's stand-in for a real cell: runtime is the
    payload's declared duration, so the payload shape doubles as the
    scheduler feature source (``scenario`` + ``duration`` are exactly
    what :func:`repro.dist.costmodel.job_features` reads) and the cost
    model converges to near-perfect predictions within one pass.
    Returns a summary echoing the payload identity, so merged results
    still verify submission order.
    """
    import time

    time.sleep(float(payload["duration"]))
    return {
        "scenario": payload.get("scenario"),
        "index": payload.get("index"),
        "duration": float(payload["duration"]),
    }


@dataclass(frozen=True)
class BlockOutcome:
    """One replication block of one fleet cell, fully self-describing.

    ``results`` are the block's :class:`SimulationResult`\\ s in
    replication order (global indices ``start..stop-1``); the sizing
    fields repeat per block so the driver can cross-check that every
    block of a cell solved to the same allocation.
    """

    scenario: str
    budget: int
    start: int
    stop: int
    sizes: Dict[str, int]
    expected_loss_rate: float
    converged: bool
    results: List[Any]


def block_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A block payload without its replication slice.

    Equal for every block of one scenario×budget cell (same layout
    and horizon): blocks with equal cells share one topology,
    one sizing and one simulation call in :func:`run_blocks`.
    """
    return {
        key: value
        for key, value in payload.items()
        if key not in ("start", "stop")
    }


def run_block(payload: Dict[str, Any]) -> BlockOutcome:
    """Size one scenario×budget cell and simulate one replication slice.

    The payload fully determines the outcome: scenario name, budget,
    the *global* replication layout (count, base seed, scheme — seeds
    are derived for the whole cell and indexed by the slice, so the
    block decomposition can never change a seed) and horizon.  The
    sizing runs through the active cache when
    one is installed: on a fleet, the worker loop installs its
    :class:`CacheTier` (the first worker to converge a cell's sizing
    publishes it and every other block reuses it); for local runs,
    ``run_matrix`` installs a run-scoped :class:`ProcessMemo` instead.
    """
    return run_blocks([payload])[0]


def run_blocks(payloads: Sequence[Dict[str, Any]]) -> List[BlockOutcome]:
    """:func:`run_block` over many payloads, set up once per cell.

    Each run of consecutive payloads with equal :func:`block_cell`
    builds the topology, looks up the sizing and simulates once: the
    slices' seeds are concatenated into one call, whose results are
    split back into one :class:`BlockOutcome` per payload, in order.
    A seed's result does not depend on which seeds share its
    simulation (the :func:`~repro.sim.runner.simulate_block`
    contract), so the outcomes equal ``[run_block(p) for p in
    payloads]`` bit for bit.  A fleet worker runs each lease's
    consecutive blocks of a cell through here.
    """
    outcomes: List[BlockOutcome] = []
    begin = 0
    while begin < len(payloads):
        cell = block_cell(payloads[begin])
        end = begin + 1
        while end < len(payloads) and block_cell(payloads[end]) == cell:
            end += 1
        outcomes.extend(_run_cell(payloads[begin:end]))
        begin = end
    return outcomes


def _run_cell(payloads: Sequence[Dict[str, Any]]) -> List[BlockOutcome]:
    """The blocks of one cell: one set-up, one simulation call."""
    from repro.sim.runner import replication_seeds, simulate_block

    cell = payloads[0]
    spec = scenarios.get(cell["scenario"])
    topology = spec.topology()
    context = ExecutionContext(jobs=1, cache=active_cache()).scoped(spec)
    sizing = context.size(
        topology, cell["budget"], sizer_kwargs=dict(spec.sizer_kwargs)
    )
    capacities = sizing.allocation.as_capacities()
    seeds = replication_seeds(
        cell["replications"], cell["base_seed"], cell["seed_scheme"]
    )
    slices = [
        [seeds[r] for r in range(payload["start"], payload["stop"])]
        for payload in payloads
    ]
    cell_seeds = [seed for block in slices for seed in block]
    # One kernel cell for every replication of every slice: they
    # advance in lockstep.  Per-replication streams are derived from
    # the global seed list, so each result is bitwise the per-seed run
    # the serial path would produce.
    results = simulate_block(
        topology,
        capacities,
        duration=cell["duration"],
        seeds=cell_seeds,
    )
    outcomes: List[BlockOutcome] = []
    offset = 0
    for payload, block in zip(payloads, slices):
        # Scenario-labeled fleet telemetry, per block: shipped to the
        # broker with the worker's other counters, split out by the
        # Prometheus exposition as
        # repro_fleet_scenario_*_total{scenario=...}.  Counters only —
        # a disabled registry hands back shared no-op stubs, so the
        # zero-overhead contract holds.
        obs.counter("scenario.blocks.%s" % spec.name).inc()
        obs.counter("scenario.replications.%s" % spec.name).inc(len(block))
        outcomes.append(
            BlockOutcome(
                scenario=spec.name,
                budget=int(payload["budget"]),
                start=int(payload["start"]),
                stop=int(payload["stop"]),
                sizes=dict(sizing.allocation.sizes),
                expected_loss_rate=sizing.expected_loss_rate,
                converged=sizing.converged,
                results=results[offset:offset + len(block)],
            )
        )
        offset += len(block)
    return outcomes
