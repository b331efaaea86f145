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


def usable_cpus() -> int:
    """The CPUs this process may use: those in its affinity mask (every
    CPU where the platform has no mask), so ``taskset`` is the control
    (a CPU quota below the mask is not read)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a job-count request.

    ``None`` or ``0`` means "every CPU this process may use"
    (:func:`usable_cpus`); negative values are rejected; anything else
    passes through.
    """
    if jobs is None or jobs == 0:
        return usable_cpus()
    if jobs < 0:
        raise SimulationError(f"jobs must be >= 0 or None, got {jobs}")
    return int(jobs)


def _one_kernel_thread() -> None:
    """Initialise a :func:`parallel_map` worker process: the pool
    already spreads the jobs over processes, so each runs its kernel
    windows on one thread (:data:`repro.sim.megabatch.KERNEL_THREADS`),
    whatever the start method."""
    from repro.sim import megabatch

    megabatch.KERNEL_THREADS = 1


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = 1,
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
        ``None``/``0`` uses every CPU this process may use.  Each job
        ships to a worker on its own.
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
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_one_kernel_thread
        ) as pool:
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
