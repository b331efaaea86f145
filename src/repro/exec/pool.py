"""Deterministic process-pool fan-out for independent experiment jobs.

Every expensive primitive in the repository — a replication batch, a
budget sweep, a load sweep — is a map of a *pure* function over a list
of independent job descriptions (seeds are pre-derived, solver state is
per-job).  :func:`parallel_map` is that map: it fans the jobs over a
``ProcessPoolExecutor`` and merges the results **in submission order**,
so the output is exactly what the serial loop would have produced.

Determinism contract
--------------------
``parallel_map(fn, jobs_list, jobs=N)`` returns the same list, element
for element, as ``[fn(j) for j in jobs_list]`` for every ``N``:

* jobs are pure functions of their (pickled) arguments — no shared
  mutable state, no wall-clock, no global RNG;
* results are merged by job index, never by completion order;
* pickling round-trips floats, ints and numpy arrays bit-exactly.

``jobs=1`` (the default everywhere) short-circuits to a plain in-process
loop — no executor, no pickling — so the serial path stays the reference
implementation the pooled path is tested against.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.errors import SimulationError

T = TypeVar("T")
R = TypeVar("R")


def partition_blocks(total: int, blocks: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``[lo, hi)`` spans covering ``range(total)``.

    The mega-batch replication dispatch partitions a cell's seed list
    into per-worker blocks with this: spans are contiguous and in
    order, sizes differ by at most one, and concatenating the spans
    reproduces ``range(total)`` exactly — so any block decomposition
    merges back into the same replication order.  ``blocks`` is clamped
    to ``[1, total]``.
    """
    if total < 1:
        raise SimulationError(f"total must be >= 1, got {total}")
    blocks = max(1, min(int(blocks), total))
    base, extra = divmod(total, blocks)
    spans: List[Tuple[int, int]] = []
    lo = 0
    for k in range(blocks):
        hi = lo + base + (1 if k < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a job-count request.

    ``None`` or ``0`` means "all cores"; negative values are rejected;
    anything else passes through.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise SimulationError(f"jobs must be >= 0 or None, got {jobs}")
    return int(jobs)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = 1,
    executor: Optional[object] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` with an ordered, deterministic merge.

    Parameters
    ----------
    fn:
        A module-level (picklable) pure function of one argument.
    items:
        Job descriptions; each must be picklable when ``jobs > 1``.
    jobs:
        Worker process count.  ``1`` (default) runs serially in-process;
        ``None``/``0`` uses every core.  Each job ships to a worker
        on its own.
    executor:
        Optional remote executor — any object with
        ``map(fn, items, on_result=...) -> list`` merging by submission
        index (:class:`repro.dist.DistExecutor` is the one in-tree).
        When given it replaces the process pool entirely and ``jobs``
        is ignored; by its own determinism contract the results are
        the same either way.
    on_result:
        Optional ``on_result(index, result)`` progress callback, fired
        in submission order as the completed prefix grows (for the
        serial path: after every job).

    Any exception raised by a job propagates to the caller — a failed
    job is never silently dropped or reordered.
    """
    job_list = list(items)
    obs.counter("pool.maps").inc()
    obs.counter("pool.jobs").inc(len(job_list))
    if executor is not None:
        # Fleet path: the executor owns dispatch — including the
        # cost-model LPT schedule and lease sizing (see
        # repro.dist.costmodel) — but merges by submission index, so
        # the determinism contract above is its contract too.  Counted
        # separately from local maps so `repro obs dump` shows how much
        # work left the host.
        obs.counter("pool.dist_maps").inc()
        obs.counter("pool.dist_jobs").inc(len(job_list))
        return executor.map(fn, job_list, on_result=on_result)
    workers = resolve_jobs(jobs)
    if workers <= 1 or len(job_list) <= 1:
        with obs.span("pool.map_serial") as span:
            span.set("jobs", len(job_list))
            results: List[R] = []
            for index, item in enumerate(job_list):
                result = fn(item)
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results
    workers = min(workers, len(job_list))
    with obs.span("pool.map") as span:
        span.set("jobs", len(job_list))
        span.set("workers", workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map yields results in submission order
            # regardless of completion order: the ordered merge the
            # contract requires.
            results = []
            for index, result in enumerate(
                pool.map(fn, job_list)
            ):
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results
