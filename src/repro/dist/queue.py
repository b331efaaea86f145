"""Job queue over TCP: the broker and its wire protocol.

One :class:`Broker` lives in the broker process (``repro dist serve``)
and :class:`BrokerServer` serves it over TCP: every public method below
is available to drivers and workers as an RPC over one authenticated
socket per :class:`BrokerConnection`.  The wire reuses the stdlib's
:mod:`multiprocessing.connection` framing and HMAC handshake, so it
needs no new dependencies; a request is a pickled ``(name, args,
kwargs)`` frame and its reply an ``(ok, value)`` frame.  A broker and
its drivers and workers must run the same version of this module.

Queue semantics
---------------
* **submit** — a driver registers a *batch*: an ordered list of
  picklable job payloads with their scheduler features.  Job ids are
  ``(batch_id, index)``; results are stored per index, so the driver's
  merge is by submission order no matter which worker computed what
  (the determinism contract of :mod:`repro.exec.pool`, extended across
  hosts).  The batch is *enqueued* longest-predicted-first.
* **lease_jobs** — the broker sizes each lease from its cost model.
  Jobs with an observed runtime rate lease in bulk, up to
  :data:`DEFAULT_LEASE_TARGET` seconds of predicted work; every other
  job leases alone, so a cold batch spreads over the whole fleet.  A
  job starts when it is granted: it is queued, leased or done.  A
  worker holds at most one lease, so its next ``lease_jobs`` call
  first hands back whatever it still holds, to the front of the queue:
  a lease whose reply was lost on a torn connection comes back as soon
  as its worker asks again.
* **complete_many** — stores a worker's buffered results and clears
  their leases.  Duplicate completions (a presumed-dead worker that was
  merely slow, or an upload replayed after a reconnect) are ignored;
  jobs are pure, so whichever result landed first is the same bits.
  Completions carry the worker's measured runtime, which trains the
  cost model.
* **long polls** — ``fetch_ready`` and ``lease_jobs`` take a ``wait``:
  with nothing to hand out they block on one :class:`threading.Condition`
  over the queue lock, and every state change that could answer them
  (a submit, a completion, a re-enqueue, a dropped batch, the server
  stopping) wakes them.  :data:`LONG_POLL_WAIT` bounds every
  wait, so reaping and the callers' own deadline checks still run at
  least that often.
* **heartbeat / reaping** — workers beat while executing; any worker
  whose last beat is older than ``lease_timeout`` is reaped and its
  incomplete lease re-enqueued at the *front* of the queue (oldest
  index first), so a worker death mid-job delays that job, never loses
  or reorders it.

The broker also hosts the shared cache tier's store (``cache_get`` /
``cache_put``): an in-memory LRU of opaque pickled blobs keyed by the
same content addresses :class:`repro.exec.cache.ResultCache` uses on
disk (see :mod:`repro.dist.cachetier`).

Clocks: all lease/heartbeat arithmetic uses the *broker's* monotonic
clock, so multi-host fleets need no cross-host clock agreement.
"""

from __future__ import annotations

import functools
import os
import pickle
import socket
import struct
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from multiprocessing import AuthenticationError
from multiprocessing.connection import (
    Connection,
    answer_challenge,
    deliver_challenge,
)
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.dist.costmodel import CostModel
from repro.errors import ReproError
from repro.faults import injector as faults
from repro.obs.metrics import MetricsRegistry

#: Shared-secret default for the connection handshake.  Every process of a
#: fleet must agree on it (``--authkey``); it authenticates peers, it is
#: *not* an encryption or trust boundary — run fleets on trusted
#: networks only.
DEFAULT_AUTHKEY = b"repro-dist"

#: Default TCP port of ``repro dist serve``.
DEFAULT_PORT = 7070

#: Seconds without a heartbeat after which a worker is considered dead
#: and its leases are re-enqueued.
DEFAULT_LEASE_TIMEOUT = 10.0

#: Default bound of the broker-side shared cache store (bytes).
DEFAULT_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: Predicted seconds of work one bulk lease aims to hand out: enough
#: that a worker rarely leases twice per second of work, yet small
#: enough that a reaped lease forfeits well under a second of
#: predicted compute.
DEFAULT_LEASE_TARGET = 0.5

#: Upper bound (seconds) of every long-poll wait in ``fetch_ready`` and
#: ``lease_jobs``: how long one call may hold a server thread, and so
#: the longest a driver's deadline and no-worker checks, or a waiting
#: call's reaping, can go without running.
LONG_POLL_WAIT = 0.5

#: Hard cap on jobs per lease, whatever the predictions say — bounds
#: both the lease RPC's payload bytes and the work a dead worker's reap
#: re-enqueues.
LEASE_MAX_JOBS = 32

JobId = Tuple[str, int]


def parse_address(address) -> Tuple[str, int]:
    """Coerce ``"host:port"`` (or an ``(host, port)`` pair) to a pair."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if sep and host and port.isdigit():
            return host, int(port)
    raise ReproError(
        f"broker address must be 'host:port' or (host, port), "
        f"got {address!r}"
    )


@dataclass(frozen=True)
class JobPayload:
    """One unit of distributable work: a pure function of one item.

    ``fn`` must be a module-level callable (pickled by reference, so
    both ends import the same code); ``item`` carries everything the
    job reads — the same purity contract as
    :func:`repro.exec.pool.parallel_map`.
    """

    fn: Callable[[Any], Any]
    item: Any


#: Cap on the text a :class:`JobFailure` ships (error repr and
#: traceback each).  A crashing job with a huge locals dump must not
#: bloat broker memory or driver logs; see :func:`truncate_failure_text`.
MAX_FAILURE_TEXT = 16_000


def truncate_failure_text(text: str, limit: int = MAX_FAILURE_TEXT) -> str:
    """Bound failure text, keeping the head and the tail.

    The head carries the exception type and entry frames, the tail the
    innermost frames — the two ends a reader actually needs; the elided
    middle is announced in place.
    """
    if limit <= 0 or len(text) <= limit:
        return text
    keep = max((limit - 60) // 2, 1)
    omitted = len(text) - 2 * keep
    return (
        f"{text[:keep]}\n... [{omitted} characters truncated] ...\n"
        f"{text[-keep:]}"
    )


@dataclass(frozen=True)
class JobFailure:
    """A job that raised, shipped back to the driver for re-raising.

    Both fields are bounded by the shipping worker
    (:func:`truncate_failure_text`), so a pathological traceback can
    never balloon the broker's result store.
    """

    error: str
    traceback: str


def _wait_deadline(wait: float) -> float:
    """The monotonic instant a long poll of ``wait`` seconds gives up."""
    return time.monotonic() + min(max(float(wait), 0.0), LONG_POLL_WAIT)


#: The connection the current server thread serves (unset for
#: in-process callers), set by :meth:`BrokerServer._serve_client`.
_serving = threading.local()


def _caller_gone() -> bool:
    """Whether this thread's remote caller has hung up.

    A proxy sends nothing while it waits for a reply, so a readable
    connection means end of file: the caller closed it, or died.
    """
    conn = getattr(_serving, "conn", None)
    if conn is None:
        return False
    try:
        return conn.poll()
    except OSError:
        return True  # closed under us (server stopping)


class Broker:
    """The broker's whole state machine, one lock around all of it.

    Methods are invoked concurrently from :class:`BrokerServer`'s
    per-connection threads; every public method takes the lock, mutates
    under it, and returns plain picklable values.  The long-poll calls
    wait on :attr:`_changed`, a condition over that same lock.
    """

    def __init__(
        self,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        cache_max_bytes: Optional[int] = DEFAULT_CACHE_MAX_BYTES,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ReproError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        self.lease_timeout = float(lease_timeout)
        # The scheduler's runtime predictor, refined by every completion.
        self.cost_model = CostModel()
        # A live driver polls its batch at least every LONG_POLL_WAIT
        # seconds, so a batch unpolled for this long belongs to a dead
        # (or partitioned) driver: drop it, or a long-lived broker
        # accumulates orphaned payloads/results until OOM while
        # workers burn CPU on jobs nobody will fetch.
        self.batch_ttl = max(30.0 * self.lease_timeout, 300.0)
        self._clock = clock
        self._lock = threading.Lock()
        # Signalled on every change a long poll may be waiting for.
        self._changed = threading.Condition(self._lock)
        self._closed = False  # set by close(): waits return at once
        # Queue state.
        self._pending: deque = deque()  # job ids awaiting a lease
        self._payloads: Dict[JobId, JobPayload] = {}
        self._leases: Dict[JobId, str] = {}  # job id -> worker id
        # Scheduler state: per-job features and submit-time predictions.
        self._features: Dict[JobId, Optional[Dict[str, Any]]] = {}
        self._predicted: Dict[JobId, float] = {}
        self._batch_totals: Dict[str, int] = {}
        self._results: Dict[str, Dict[int, Any]] = {}
        self._batch_polled: Dict[str, float] = {}  # batch -> last poll
        self._workers: Dict[str, float] = {}  # worker id -> last beat
        # Shared cache store (opaque blobs, LRU-bounded).
        self._cache: "OrderedDict[str, bytes]" = OrderedDict()
        self._cache_bytes = 0
        self.cache_max_bytes = cache_max_bytes
        # Counters live in a broker-local, always-enabled registry —
        # the single source stats(), cache_stats() and obs_snapshot()
        # all read, so the three views can never disagree about what a
        # counter means.  Metric objects are fetched once here; the hot
        # paths below just .inc() them (all mutation happens under
        # self._lock, which is what makes each snapshot consistent).
        self.metrics = MetricsRegistry(enabled=True)
        self._c_reaped = self.metrics.counter("broker.reaped_jobs")
        self._c_completed = self.metrics.counter("broker.completed")
        self._c_dropped = self.metrics.counter("broker.dropped_batches")
        # Scheduler/transport telemetry (the `dist top` rows).
        self._c_lease_grants = self.metrics.counter("broker.lease_grants")
        self._c_lease_jobs = self.metrics.counter("broker.lease_jobs")
        self._c_batched_uploads = self.metrics.counter(
            "broker.batched_uploads"
        )
        self._c_batched_jobs = self.metrics.counter("broker.batched_jobs")
        self._c_cache_gets = self.metrics.counter("broker.cache.gets")
        self._c_cache_hits = self.metrics.counter("broker.cache.hits")
        self._c_cache_puts = self.metrics.counter("broker.cache.puts")
        self._c_cache_evictions = self.metrics.counter(
            "broker.cache.evictions"
        )
        # Completion latency distribution (worker-measured runtimes) —
        # the `dist top` latency row and the /metrics summary quantiles.
        self._h_runtime = self.metrics.histogram("broker.job_runtime_seconds")
        # Fleet telemetry: per-worker metric deltas shipped on
        # heartbeats/completions.  Reaped workers keep their totals
        # (marked dead) so fleet sums stay correct across deaths.
        self._worker_metrics: Dict[str, Dict[str, Any]] = {}

    # -- queue protocol ------------------------------------------------

    def submit(
        self,
        batch_id: str,
        payloads: List[JobPayload],
        features: Optional[List[Optional[Dict[str, Any]]]] = None,
    ) -> int:
        """Register one ordered batch of jobs; returns the batch size.

        ``features`` (parallel to ``payloads``) are the driver-extracted
        scheduler features — the broker never introspects payloads.
        The batch is *enqueued* longest-predicted-first (LPT), while job
        ids, result indices and the driver's merge order stay the
        submission order — dispatch order is scheduling, not semantics.
        Python's sort is stable, so jobs the model cannot tell apart
        keep their submission order and a cold-start batch dispatches
        exactly like FIFO.  A ``features`` list of another length is an
        error, raised before any state changes.
        """
        if features is not None and len(features) != len(payloads):
            raise ReproError(
                f"batch {batch_id!r}: {len(features)} feature entries "
                f"for {len(payloads)} payloads"
            )
        with self._lock:
            if batch_id in self._batch_totals:
                raise ReproError(f"batch {batch_id!r} already submitted")
            self._batch_totals[batch_id] = len(payloads)
            self._results[batch_id] = {}
            self._batch_polled[batch_id] = self._clock()
            order = list(range(len(payloads)))
            if features is not None:
                for index in order:
                    self._features[(batch_id, index)] = features[index]
            for index in order:
                job_id = (batch_id, index)
                self._predicted[job_id] = self.cost_model.predict(
                    self._features.get(job_id)
                )
            order.sort(key=lambda i: -self._predicted[(batch_id, i)])
            for index in order:
                job_id = (batch_id, index)
                self._payloads[job_id] = payloads[index]
                self._pending.append(job_id)
            self._changed.notify_all()
            return len(payloads)

    def lease_jobs(
        self, worker_id: str, wait: float = 0.0
    ) -> List[Tuple[JobId, JobPayload]]:
        """Lease work to one worker, sized by the cost model.

        Returns the granted ``(job_id, payload)`` pairs, each started
        the moment it is granted.  Jobs the model has an *observed*
        rate for (:meth:`CostModel.observed_cost`) are granted until
        their predicted runtimes would sum past
        :data:`DEFAULT_LEASE_TARGET` (or :data:`LEASE_MAX_JOBS`): cheap
        jobs lease in bulk, and one lease RPC hands out
        ≈``DEFAULT_LEASE_TARGET`` seconds of work.  Every other job —
        never observed, or predicted longer than the target — leases
        alone.  A cold batch therefore spreads over every worker, and
        its first completions train the model.

        A worker id holds at most one lease.  The worker loop keeps
        that contract: it leases again only after running its previous
        lease and flushing the results.  So the call first hands back
        every job ``worker_id`` still holds, to the front of the queue
        in index order, counted in ``broker.reaped_jobs`` like a reap.
        A lease whose reply was lost on a torn connection therefore
        comes back on the worker's next call; a reap would never free
        it, since the worker keeps beating.

        With nothing to lease, the call long-polls: it waits up to
        ``wait`` seconds (at most :data:`LONG_POLL_WAIT`) for a submit
        or a reap to queue work, and returns an empty lease if none
        comes.
        """
        deadline = _wait_deadline(wait)
        with self._lock:
            self._requeue_leases({worker_id})
            while True:
                self._beat(worker_id)
                self._reap()
                granted = self._lease_locked(worker_id)
                if granted or not self._wait_locked(deadline):
                    return granted

    def _lease_locked(self, worker_id: str) -> List[Tuple[JobId, JobPayload]]:
        """One lease attempt: grant from the front of the queue."""
        granted: List[Tuple[JobId, JobPayload]] = []
        predicted_total = 0.0
        while self._pending and len(granted) < LEASE_MAX_JOBS:
            job_id = self._pending[0]
            if job_id not in self._payloads or job_id in self._leases:
                self._pending.popleft()
                continue  # dropped batch / duplicate re-enqueue
            cost = self.cost_model.observed_cost(
                self._features.get(job_id)
            )
            if granted and (
                cost is None
                or predicted_total + cost > DEFAULT_LEASE_TARGET
            ):
                break
            self._pending.popleft()
            self._leases[job_id] = worker_id
            granted.append((job_id, self._payloads[job_id]))
            if cost is None:
                break  # unobserved: leases alone
            predicted_total += cost
        if granted:
            self._c_lease_grants.inc()
            self._c_lease_jobs.inc(len(granted))
        return granted

    def complete_many(
        self,
        worker_id: str,
        completions: List[Tuple[JobId, Any, Optional[float]]],
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store a worker's buffered ``(job_id, result, runtime)`` batch.

        Each element lands idempotently: the first result for an index
        wins and increments ``completed`` exactly once, and every
        duplicate returns before any counter.  So a batch replayed
        after a reconnect (the worker cannot know whether the first
        upload landed before the connection died) stores nothing twice,
        and partial novelty is fine too: the duplicate elements no-op,
        the new ones land.

        A worker reaped mid-upload lands here *after* its jobs were
        re-enqueued: the late completion must not resurrect the reaped
        worker (``register=False`` — a phantom in ``_workers`` would
        inflate the live-worker count the driver's no-progress guard
        reads, and be "reaped" again next cycle).  The worker
        re-registers honestly on its next lease.

        ``runtime`` is the worker's measured wall time for the job,
        which trains the cost model; a completion without one trains
        nothing.
        """
        with self._lock:
            self._beat(worker_id, register=False)
            if metrics is not None:
                self._merge_worker_metrics(worker_id, metrics)
            self._c_batched_uploads.inc()
            self._c_batched_jobs.inc(len(completions))
            for job_id, result, runtime in completions:
                self._complete_locked(job_id, result, runtime)
            self._changed.notify_all()

    def _complete_locked(
        self, job_id: JobId, result: Any, runtime: Optional[float]
    ) -> None:
        """Store one result and train the cost model (lock held)."""
        batch_id, index = job_id
        job_id = (batch_id, index)
        results = self._results.get(batch_id)
        if results is None or index in results:
            self._forget_job(job_id)  # dropped batch / duplicate
            return
        results[index] = result
        self._c_completed.inc()
        if runtime is not None:
            self._h_runtime.observe(runtime)
            self.cost_model.observe(
                self._features.get(job_id),
                runtime,
                predicted=self._predicted.get(job_id),
            )
        self._forget_job(job_id)

    def heartbeat(
        self,
        worker_id: str,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record liveness (workers beat from a side thread mid-job).

        ``metrics``, when present, is a delta envelope
        ``{"counters": {name: increment}, "gauges": {name: level}}``
        from the worker's local registry — merged here under the queue
        lock so the broker's fleet view moves atomically with liveness.
        """
        with self._lock:
            self._beat(worker_id)
            if metrics is not None:
                self._merge_worker_metrics(worker_id, metrics)

    def fetch_ready(
        self, batch_id: str, start: int, wait: float = 0.0
    ) -> List[Any]:
        """The contiguous completed results from index ``start`` on.

        The driver's result loop; also drives reaping, so dead workers
        are detected even while every surviving worker is busy.  While
        result ``start`` is missing the call long-polls: it returns as
        soon as a completion fills it, or ``[]`` after ``wait`` seconds
        (at most :data:`LONG_POLL_WAIT`).  A batch dropped meanwhile
        raises, as it would on a fresh call.
        """
        deadline = _wait_deadline(wait)
        with self._lock:
            while True:
                self._reap()
                results = self._results.get(batch_id)
                if results is None:
                    raise ReproError(f"unknown batch {batch_id!r}")
                self._batch_polled[batch_id] = self._clock()
                ready: List[Any] = []
                index = start
                while index in results:
                    ready.append(results[index])
                    index += 1
                if ready or not self._wait_locked(deadline):
                    return ready

    def batch_status(self, batch_id: str) -> Tuple[int, int]:
        """``(completed, total)`` for one batch."""
        with self._lock:
            if batch_id not in self._batch_totals:
                raise ReproError(f"unknown batch {batch_id!r}")
            self._batch_polled[batch_id] = self._clock()
            return (
                len(self._results[batch_id]),
                self._batch_totals[batch_id],
            )

    def drop_batch(self, batch_id: str) -> None:
        """Forget one batch entirely (results, pending and leased jobs)."""
        with self._lock:
            self._drop_batch(batch_id)

    def close(self) -> None:
        """Release every waiting long poll; later calls wait no more.

        :meth:`BrokerServer.stop` calls this first, so a server thread
        parked in a wait answers at once instead of holding up the
        shutdown.  Every other method keeps working.
        """
        with self._lock:
            self._closed = True
            self._changed.notify_all()

    def config(self) -> Dict[str, Any]:
        """Broker parameters workers read at connect time."""
        with self._lock:
            return {"lease_timeout": self.lease_timeout}

    def stats(self) -> Dict[str, Any]:
        """Queue diagnostics (tests, the fleet driver's summary line).

        One lock acquisition around every read: the returned dict is a
        consistent point-in-time view (counters used to be plain
        attributes readable mid-update between RPCs).
        """
        with self._lock:
            stats = self._stats_locked()
        stats["steals"] = 0  # nothing steals; perfbench still reads it
        return stats

    def _stats_locked(self) -> Dict[str, Any]:
        return {
            "workers": len(self._workers),
            "pending": len(self._pending),
            "leased": len(self._leases),
            "batches": len(self._batch_totals),
            "completed": self._c_completed.value,
            "reaped_jobs": self._c_reaped.value,
            "dropped_batches": self._c_dropped.value,
            "lease_grants": self._c_lease_grants.value,
            "lease_jobs": self._c_lease_jobs.value,
            "batched_uploads": self._c_batched_uploads.value,
            "batched_jobs": self._c_batched_jobs.value,
        }

    def _scheduler_snapshot_locked(self) -> Dict[str, Any]:
        """Scheduler/transport telemetry for ``dist top``/``obs dump``.

        Derived from the same counters as :meth:`_stats_locked` under
        the same lock hold — one metrics path, two renderings.
        """
        grants = self._c_lease_grants.value
        return {
            "lease_target": DEFAULT_LEASE_TARGET,
            "cost": self.cost_model.stats(),
            "mean_lease_size": (
                self._c_lease_jobs.value / grants if grants else None
            ),
            "batched_uploads": self._c_batched_uploads.value,
        }

    def obs_snapshot(self) -> Dict[str, Any]:
        """The whole fleet's telemetry in one lock acquisition.

        Queue stats, shared-cache stats, per-worker shipped metrics
        (dead workers included, marked ``alive: false``), fleet-wide
        counter totals, and the broker's own registry — all read under
        the same lock hold, so ``repro dist top`` and ``repro obs
        dump`` render a view where, e.g., ``completed`` and the
        per-worker job counts cannot contradict each other.
        """
        with self._lock:
            workers = {
                worker_id: {
                    "alive": record["alive"],
                    "counters": dict(record["counters"]),
                    "gauges": dict(record["gauges"]),
                    "last_beat": record["last_beat"],
                }
                for worker_id, record in self._worker_metrics.items()
            }
            fleet_counters: Dict[str, int] = {}
            for record in self._worker_metrics.values():
                for name, value in record["counters"].items():
                    fleet_counters[name] = (
                        fleet_counters.get(name, 0) + value
                    )
            return {
                "queue": self._stats_locked(),
                "scheduler": self._scheduler_snapshot_locked(),
                "cache": self._cache_stats_locked(),
                "workers": workers,
                "fleet": {"counters": fleet_counters},
                "broker": self.metrics.snapshot(),
                # Both clocks, deliberately: "monotonic" is the broker's
                # lease/heartbeat clock, so consumers compute worker
                # staleness (now - last_beat) without cross-host clock
                # agreement; "wall" lets a scraper date the sample.
                "time": {
                    "monotonic": self._clock(),
                    "wall": time.time(),
                },
            }

    # -- internals (call with the lock held) ---------------------------

    def _wait_locked(self, deadline: float) -> bool:
        """Wait for a state change until ``deadline``.

        ``False`` once the deadline passed, the broker closed or the
        remote caller hung up: the caller then returns what it has
        instead of looking again.
        """
        remaining = deadline - time.monotonic()
        if remaining <= 0 or self._closed:
            return False
        self._changed.wait(remaining)
        # A caller that hung up while parked must not be handed work it
        # can never receive: a dead worker's lease would sit until the
        # reaper frees it, a whole lease_timeout later.
        return not _caller_gone()

    def _beat(self, worker_id: str, register: bool = True) -> None:
        """Record liveness.  ``register=False`` only refreshes workers
        already known — reaped workers stay reaped until they lease."""
        if register or worker_id in self._workers:
            self._workers[worker_id] = self._clock()
            record = self._worker_metrics.get(worker_id)
            if record is not None:
                record["alive"] = True
                record["last_beat"] = self._workers[worker_id]

    def _merge_worker_metrics(
        self, worker_id: str, metrics: Dict[str, Any]
    ) -> None:
        """Fold one shipped delta envelope into the fleet view.

        Counters accumulate (the worker ships increments since its last
        successful ship — see ``_MetricsShipper``); gauges overwrite.
        A reaped worker shipping a late delta still lands — its work
        happened — but stays marked dead until it re-registers via
        ``lease_jobs``.
        """
        record = self._worker_metrics.get(worker_id)
        if record is None:
            record = self._worker_metrics[worker_id] = {
                "alive": worker_id in self._workers,
                "counters": {},
                "gauges": {},
                "last_beat": self._clock(),
            }
        counters = record["counters"]
        for name, delta in metrics.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + delta
        record["gauges"].update(metrics.get("gauges", {}))

    def _drop_batch(self, batch_id: str) -> None:
        self._batch_totals.pop(batch_id, None)
        self._results.pop(batch_id, None)
        self._batch_polled.pop(batch_id, None)
        for job_id in [j for j in self._payloads if j[0] == batch_id]:
            self._forget_job(job_id)
        self._changed.notify_all()  # a fetch waiting on it must raise

    def _reap(self) -> None:
        """Re-enqueue every incomplete lease of heartbeat-dead workers,
        and drop batches whose driver stopped polling (died) entirely."""
        now = self._clock()
        for batch_id in [
            b
            for b, polled in self._batch_polled.items()
            if now - polled > self.batch_ttl
        ]:
            self._drop_batch(batch_id)
            self._c_dropped.inc()
        dead = [
            w
            for w, beat in self._workers.items()
            if now - beat > self.lease_timeout
        ]
        for worker_id in dead:
            del self._workers[worker_id]
            # Keep the dead worker's shipped metric totals — fleet
            # sums must not shrink when a worker dies — but mark it so
            # the console shows it gone.
            record = self._worker_metrics.get(worker_id)
            if record is not None:
                record["alive"] = False
        if dead:
            self._requeue_leases(set(dead))

    def _requeue_leases(self, worker_ids: Set[str]) -> None:
        """Re-enqueue every job still leased to one of ``worker_ids``.

        Front of the queue, oldest index first: a re-enqueued job is
        picked up before fresh work, bounding its extra delay.
        """
        held = sorted(
            j for j, owner in self._leases.items() if owner in worker_ids
        )
        for job_id in held:
            del self._leases[job_id]
        self._pending.extendleft(reversed(held))
        self._c_reaped.inc(len(held))
        if held:
            self._changed.notify_all()

    def _forget_job(self, job_id: JobId) -> None:
        self._payloads.pop(job_id, None)
        self._leases.pop(job_id, None)
        self._features.pop(job_id, None)
        self._predicted.pop(job_id, None)

    # -- shared cache store --------------------------------------------

    def cache_get(self, key: str) -> Optional[bytes]:
        """The blob stored under one content address (``None`` = miss)."""
        with self._lock:
            self._c_cache_gets.inc()
            blob = self._cache.get(key)
            if blob is None:
                return None
            self._c_cache_hits.inc()
            self._cache.move_to_end(key)
            return blob

    def cache_put(self, key: str, blob: bytes) -> None:
        """Publish one blob (LRU-evicting beyond ``cache_max_bytes``)."""
        with self._lock:
            self._c_cache_puts.inc()
            old = self._cache.pop(key, None)
            if old is not None:
                self._cache_bytes -= len(old)
            self._cache[key] = blob
            self._cache_bytes += len(blob)
            if self.cache_max_bytes is None:
                return
            while self._cache_bytes > self.cache_max_bytes and self._cache:
                _, evicted = self._cache.popitem(last=False)
                self._cache_bytes -= len(evicted)
                self._c_cache_evictions.inc()

    def cache_stats(self) -> Dict[str, int]:
        """Shared-store counters (cross-worker hits show up in ``hits``)."""
        with self._lock:
            return self._cache_stats_locked()

    def _cache_stats_locked(self) -> Dict[str, int]:
        return {
            "entries": len(self._cache),
            "bytes": self._cache_bytes,
            "gets": self._c_cache_gets.value,
            "hits": self._c_cache_hits.value,
            "puts": self._c_cache_puts.value,
            "evictions": self._c_cache_evictions.value,
        }


# ----------------------------------------------------------------------
# Wire: one Broker over TCP, one authenticated socket per connection.

#: Seconds a client waits for the TCP connect to a broker.
CONNECT_TIMEOUT = 5.0

#: Seconds a connected client waits for the broker's challenge.  A live
#: server sends it the moment it accepts, so a silent peer is not a
#: broker: typically a *zombie backlog*, a closed listener whose fd a
#: forked child still holds, so the kernel keeps accepting connections
#: that nobody serves.
CHALLENGE_TIMEOUT = 2.0

#: The names a client may call: the public methods of :class:`Broker`.
_CALLABLE = frozenset(
    name
    for name in dir(Broker)
    if not name.startswith("_") and callable(getattr(Broker, name))
)

#: Transport errors meaning "the broker went away mid-conversation": a
#: refused, reset or closed connection (``OSError``, which includes the
#: ``ConnectionError`` family), or one torn mid-frame (``EOFError``).
_BROKER_GONE = (OSError, EOFError)


def _set_nodelay(sock: socket.socket) -> None:
    """Turn Nagle's algorithm off on one broker socket.

    ``multiprocessing.connection`` writes a message over 16 KiB as a
    4-byte header and then a separate body.  With Nagle on, the body
    waits for the peer to ACK the header, and the peer delays that ACK
    by ~40 ms: every such RPC (a shared-cache blob, a large lease or
    upload) would stall that long, where it takes a fraction of a
    millisecond with the option set.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _answer(broker: Broker, request: bytes) -> Tuple[bool, Any]:
    """Run one ``(name, args, kwargs)`` frame; the ``(ok, value)`` reply.

    The method is looked up on the instance at call time, so a method
    replaced on the instance (a tracer wrapping ``complete_many``) is
    the one that runs.  A failed call replies with the exception
    object, which the client re-raises.
    """
    try:
        name, args, kwargs = pickle.loads(request)
        if name not in _CALLABLE:
            raise ReproError(f"{name!r} is not a public Broker method")
        return True, getattr(broker, name)(*args, **kwargs)
    except Exception as exc:
        return False, exc


def _abort(sock: socket.socket) -> None:
    """Reset ``sock``: wake its blocked readers, RST on the last close.

    See :meth:`BrokerServer.stop` for why a plain close is not enough.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the peer reset it first


class BrokerServer:
    """A :class:`Broker` listening on TCP.

    ``port=0`` binds an ephemeral port; the actual address is
    :attr:`address` either way.  ``serve_forever`` blocks (the CLI's
    ``repro dist serve``); ``start_in_thread`` runs the accept loop on
    a daemon thread (tests, benchmarks, in-process fleets).  Each
    accepted connection gets one daemon thread, which runs the mutual
    HMAC handshake of :mod:`multiprocessing.connection` and then
    answers the client's calls one at a time.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        authkey: bytes = DEFAULT_AUTHKEY,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        cache_max_bytes: Optional[int] = DEFAULT_CACHE_MAX_BYTES,
    ) -> None:
        self.broker = Broker(
            lease_timeout=lease_timeout,
            cache_max_bytes=cache_max_bytes,
        )
        self._authkey = authkey
        self._listener = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._thread: Optional[threading.Thread] = None
        # Live client sockets and their threads, and the stop flag,
        # all under _lock: stop() aborts exactly the sockets still
        # open, and no connection registers after it ran.
        self._lock = threading.Lock()
        self._clients: Dict[socket.socket, threading.Thread] = {}
        self._stopped = False

    def serve_forever(self) -> None:
        """Run the accept loop in this thread (blocks until stopped)."""
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self._stopped:
                    return
                continue  # a connection reset before accept() returned
            thread = threading.Thread(
                target=self._serve_client,
                args=(sock,),
                name="repro-dist-connection",
                daemon=True,
            )
            with self._lock:
                if self._stopped:
                    _abort(sock)
                    sock.close()
                    return
                self._clients[sock] = thread
                thread.start()

    def _serve_client(self, sock: socket.socket) -> None:
        """Authenticate one client, then answer its calls in order."""
        try:
            with Connection(os.dup(sock.fileno())) as conn:
                _set_nodelay(sock)
                deliver_challenge(conn, self._authkey)
                answer_challenge(conn, self._authkey)
                _serving.conn = conn  # for _caller_gone() in long polls
                while True:
                    conn.send(_answer(self.broker, conn.recv_bytes()))
        except (*_BROKER_GONE, AuthenticationError):
            pass  # hung up, failed the handshake, or aborted by stop()
        finally:
            # Deregistered before the close, so stop() only ever
            # shuts down a socket that is still open.
            with self._lock:
                del self._clients[sock]
            sock.close()

    def listen_fileno(self) -> Optional[int]:
        """The listener socket's fd, or ``None`` once closed.

        Anyone forking children out of the broker's process must close
        this fd in the child: an inherited copy keeps the port's kernel
        backlog accepting connections after :meth:`stop`, turning a
        cleanly stopped broker into a zombie that clients only refuse
        after :data:`CHALLENGE_TIMEOUT`.
        """
        fileno = self._listener.fileno()
        return None if fileno < 0 else fileno

    def start_in_thread(self) -> "BrokerServer":
        """Run the accept loop on a daemon thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="repro-dist-broker",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving; on return the port is free, every thread joined.

        Idempotent.  Each client connection is aborted, not closed.  On
        Linux a thread blocked in ``recv()`` or ``accept()`` holds the
        socket alive through ``close()``; ``shutdown(SHUT_RDWR)`` wakes
        it.  The close must also be abortive (``SO_LINGER`` zero: RST
        instead of FIN), because a graceful close parks the socket in
        FIN_WAIT2 until the remote peer notices, and that keeps the
        port unbindable for a broker restarted on it.  Clients see a
        reset or end of file, the transient signals their retry
        policies already handle.
        """
        # Wake the long polls first: their threads then answer at once
        # instead of waiting out LONG_POLL_WAIT.
        self.broker.close()
        with self._lock:
            self._stopped = True
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # not listening any more (stopped before)
            self._listener.close()
            threads = list(self._clients.values())
            for sock in self._clients:
                _abort(sock)
        for thread in threads:
            thread.join(timeout=1.0)
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


class _BrokerProxy:
    """The public :class:`Broker` methods, called over one connection.

    ``proxy.name(*args, **kwargs)`` sends one ``(name, args, kwargs)``
    frame and blocks for the ``(ok, value)`` reply; a failed call
    re-raises the broker's exception here.
    """

    def __init__(self, conn: Connection) -> None:
        self._conn = conn

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name.startswith("_"):
            raise AttributeError(name)
        return functools.partial(self._call, name)

    def _call(self, name: str, *args: Any, **kwargs: Any) -> Any:
        self._conn.send((name, args, kwargs))
        ok, value = self._conn.recv()
        if not ok:
            raise value
        return value


class BrokerConnection:
    """One authenticated TCP connection to a broker (driver or worker side).

    :attr:`broker` calls the broker's methods over it.  A connection
    serves one thread at a time (workers' heartbeat threads open their
    own).  A dead, zombie or self-connected endpoint is refused fast
    with :class:`ConnectionRefusedError`, never a hang.
    """

    def __init__(
        self, address, authkey: bytes = DEFAULT_AUTHKEY
    ) -> None:
        self.address = parse_address(address)
        host, port = self.address
        faults.fire("connect", address=self.address)
        with socket.create_connection(
            self.address, timeout=CONNECT_TIMEOUT
        ) as sock:
            # On Linux, connecting to a just-freed ephemeral port can
            # land on the connecting socket itself (a TCP self-connect).
            if sock.getsockname() == sock.getpeername():
                raise ConnectionRefusedError(
                    f"no listener at {host}:{port} (self-connected socket)"
                )
            _set_nodelay(sock)
            sock.settimeout(None)  # calls block; long polls are bounded
            self._conn = Connection(sock.detach())
        try:
            if not self._conn.poll(CHALLENGE_TIMEOUT):
                raise ConnectionRefusedError(
                    f"listener at {host}:{port} accepted but never sent "
                    f"a challenge (stale backlog, no server)"
                )
            answer_challenge(self._conn, authkey)
            deliver_challenge(self._conn, authkey)
        except BaseException:
            self._conn.close()
            raise
        self.broker = _BrokerProxy(self._conn)

    def close(self) -> None:
        """Close the socket; the broker's thread for it then exits."""
        self._conn.close()


def connect(address, authkey: bytes = DEFAULT_AUTHKEY) -> BrokerConnection:
    """Open one connection to the broker at ``address``."""
    return BrokerConnection(address, authkey=authkey)
