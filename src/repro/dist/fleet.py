"""The fleet driver: a scenario×budget×replication matrix as a job list.

``run_matrix`` enumerates registry scenarios into the flat, ordered
job list the queue executes — one :func:`repro.dist.jobs.run_block`
payload per (scenario, budget, replication) — and merges the
block outcomes back into per-cell results *by submission order*.  The
same function body runs the matrix serially (``executor=None,
jobs=1``), on the local pool (``jobs=N``) or on a broker fleet
(``executor=DistExecutor(...)``): the acceptance contract is that all
three produce bitwise-identical :class:`FleetOutcome` payloads, which
``repro dist run --verify-local`` asserts end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import scenarios
from repro.errors import ReproError
from repro.exec.cache import canonicalize
from repro.exec.pool import parallel_map
from repro.dist import jobs as dist_jobs
from repro.dist.jobs import BlockOutcome, ProcessMemo, run_block
from repro.sim.runner import ReplicationSummary

__all__ = ["FleetCell", "FleetOutcome", "build_matrix", "run_matrix"]


@dataclass(frozen=True)
class FleetCell:
    """One (scenario, budget) cell: its sizing and its replications."""

    scenario: str
    budget: int
    sizes: Dict[str, int]
    expected_loss_rate: float
    converged: bool
    summary: ReplicationSummary


@dataclass
class FleetOutcome:
    """All cells of one matrix run, in enumeration order."""

    cells: List[FleetCell]

    def to_jsonable(self) -> Any:
        """Canonical JSON-compatible form of every cell.

        Full float precision (shortest round-trip repr), so two
        outcomes are bitwise-identical iff their JSON forms are equal —
        the form ``--verify-local`` and the CI smoke compare.
        """
        return canonicalize(self.cells)

    def write_json(self, path) -> None:
        """Write the canonical JSON artifact of the run."""
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def render(self) -> str:
        """The human-readable matrix table (the CLI artifact)."""
        lines = [
            f"{'scenario':24s} {'budget':>6s} {'reps':>4s} "
            f"{'mean loss':>10s} {'+/-':>8s} {'model rate':>10s}"
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.scenario:24s} {cell.budget:6d} "
                f"{cell.summary.num_replications:4d} "
                f"{cell.summary.mean_total_loss():10.1f} "
                f"{cell.summary.std_total_loss():8.1f} "
                f"{cell.expected_loss_rate:10.6f}"
                + ("" if cell.converged else "  [fixed point not converged]")
            )
        return "\n".join(lines)


def build_matrix(
    scenario_names: Sequence[str],
    budgets: Optional[Sequence[int]] = None,
    replications: int = 3,
    duration: float = 500.0,
    base_seed: int = 0,
) -> List[Dict[str, Any]]:
    """The ordered job payload list of one matrix.

    ``budgets=None`` uses each scenario's declared budget axis;
    an explicit list applies to every scenario.  Each job is one
    replication of one cell (``start``..``stop`` spans one index), so
    the queue has the most to balance and every block of a cell shares
    the cell's cached sizing.

    Scenarios and budgets are deduplicated (first spelling wins, by
    *canonical* scenario name, so family aliases collapse too): a cell
    enumerated twice would otherwise merge into one summary with
    duplicated identical replications, silently skewing its spread.
    """
    if not scenario_names:
        raise ReproError("fleet matrix needs at least one scenario")
    if replications < 1:
        raise ReproError(
            f"replications must be >= 1, got {replications}"
        )
    specs = list(
        {
            spec.name: spec
            for spec in (scenarios.get(name) for name in scenario_names)
        }.values()
    )
    payloads: List[Dict[str, Any]] = []
    for spec in specs:
        axis = list(
            dict.fromkeys(
                int(b) for b in (budgets if budgets else spec.budgets)
            )
        )
        for budget in axis:
            for start in range(replications):
                payloads.append(
                    {
                        "scenario": spec.name,
                        "budget": budget,
                        "replications": int(replications),
                        "start": start,
                        "stop": start + 1,
                        "duration": float(duration),
                        "base_seed": int(base_seed),
                    }
                )
    return payloads


def _merge_blocks(blocks: List[BlockOutcome]) -> FleetOutcome:
    """Group ordered block outcomes back into per-cell results.

    Blocks arrive in submission order (the pool/queue merge is by
    index), so a cell's blocks are contiguous and its replication
    slices concatenate in seed order.  Every block of a cell re-reports
    the sizing; disagreement would mean a job was not a pure function
    of its payload, which is worth failing loudly over.
    """
    cells: List[FleetCell] = []
    index = 0
    while index < len(blocks):
        first = blocks[index]
        results: List[Any] = []
        group_end = index
        while (
            group_end < len(blocks)
            and blocks[group_end].scenario == first.scenario
            and blocks[group_end].budget == first.budget
        ):
            block = blocks[group_end]
            if block.sizes != first.sizes:
                raise ReproError(
                    f"non-deterministic sizing for cell "
                    f"{first.scenario!r} budget {first.budget}: "
                    f"{block.sizes} != {first.sizes}"
                )
            results.extend(block.results)
            group_end += 1
        cells.append(
            FleetCell(
                scenario=first.scenario,
                budget=first.budget,
                sizes=dict(first.sizes),
                expected_loss_rate=first.expected_loss_rate,
                converged=first.converged,
                summary=ReplicationSummary(results),
            )
        )
        index = group_end
    return FleetOutcome(cells=cells)


def run_matrix(
    scenario_names: Sequence[str],
    budgets: Optional[Sequence[int]] = None,
    replications: int = 3,
    duration: float = 500.0,
    base_seed: int = 0,
    jobs: int = 1,
    executor: Optional[Any] = None,
    on_result: Optional[Callable[[int, BlockOutcome], None]] = None,
    journal: Optional[Any] = None,
) -> FleetOutcome:
    """Run one scenario×budget×replication matrix, merged by cell.

    ``executor`` (a :class:`~repro.dist.executor.DistExecutor`) fans
    the blocks over a broker fleet; ``jobs=N`` over the local pool;
    the default is the serial reference loop.  All three merge to
    bitwise-identical outcomes.  ``on_result(index, block)`` streams
    completed blocks in submission order.

    ``journal`` (a :class:`~repro.dist.journal.RunJournal`) makes the
    run resumable: it is bound to this matrix configuration (resume
    validates the config hash), already-journaled blocks are reused
    without recomputing, and every newly completed block is recorded
    atomically *as it streams in* — so a driver killed mid-run loses
    at most the blocks in flight.  ``on_result`` still fires for every
    block, journaled or fresh, in global submission order.
    """
    payloads = build_matrix(
        scenario_names,
        budgets=budgets,
        replications=replications,
        duration=duration,
        base_seed=base_seed,
    )
    blocks: List[Optional[BlockOutcome]] = [None] * len(payloads)
    todo_indices: List[int] = []
    if journal is not None:
        journal.bind(payloads)
        for index, payload in enumerate(payloads):
            hit, block = journal.lookup(payload)
            if hit:
                blocks[index] = block
            else:
                todo_indices.append(index)
    else:
        todo_indices = list(range(len(payloads)))

    # Stream on_result in *global* submission order: journaled blocks
    # and freshly computed ones interleave, so a block is emitted only
    # once the contiguous prefix before it is complete.
    emitted = 0

    def _flush() -> None:
        nonlocal emitted
        while emitted < len(blocks) and blocks[emitted] is not None:
            if on_result is not None:
                on_result(emitted, blocks[emitted])
            emitted += 1

    def _on_block(todo_position: int, block: BlockOutcome) -> None:
        index = todo_indices[todo_position]
        blocks[index] = block
        if journal is not None:
            journal.record(payloads[index], block)
        _flush()

    todo = [payloads[index] for index in todo_indices]
    # A run-scoped sizing memo: each cell's sizing is solved once per
    # process, and the memo dies with the run.  Installed before any
    # fan-out, so forked pool workers inherit (an empty) one, and on
    # the fleet path too, for the blocks a lost broker leaves to the
    # local pool.  Fleet workers install their own CacheTier.
    memo_installed = dist_jobs.active_cache() is None
    if memo_installed:
        dist_jobs.set_active_cache(ProcessMemo())
    try:
        if executor is not None:
            # The executor merges by submission index, as parallel_map does.
            executor.map(run_block, todo, on_result=_on_block)
        else:
            parallel_map(run_block, todo, jobs=jobs, on_result=_on_block)
    finally:
        if memo_installed:
            dist_jobs.set_active_cache(None)
    _flush()
    return _merge_blocks(blocks)
