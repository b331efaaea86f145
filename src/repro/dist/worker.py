"""The worker loop: lease, execute, upload — and heartbeat.

``repro dist worker HOST:PORT`` runs :func:`worker_loop` in the
foreground.  The loop leases jobs via
:meth:`~repro.dist.queue.Broker.lease_jobs` (the broker sizes the
lease from its cost model and starts every job it grants; an idle
worker's lease call long-polls, so new work starts the moment it is
submitted, with no sleeps), runs each lease's consecutive
:func:`~repro.dist.jobs.run_block` jobs of one cell as one mega-batch
block (:func:`~repro.dist.jobs.run_blocks`), and ships the whole
lease's results (or a :class:`~repro.dist.queue.JobFailure` wrapping
the exception, with its text bounded by
:func:`~repro.dist.queue.truncate_failure_text`) back in one
``complete_many`` upload, made right before its next lease call — one
RPC per lease, so a result waits at most for the rest of its own lease
(at most :data:`~repro.dist.queue.DEFAULT_LEASE_TARGET` of predicted
work), never on future work.  Each completion carries the job's
measured wall time, which trains the broker's cost model.  Because
completions are idempotent broker-side, an upload interrupted by a
torn connection is simply replayed after the reconnect.  The worker
leases again only after its previous lease ran and shipped: the
broker's one-lease-per-worker contract, under which the next lease
call hands back whatever a torn connection left unfinished (or a lost
reply left unseen).

Liveness is a side thread beating over its *own* broker connection
(a connection serves one thread at a time), so a worker stays alive
through arbitrarily long jobs; a worker that dies stops beating and the
broker re-enqueues its leases after ``lease_timeout``.

Self-healing: connects run under the unified
:class:`~repro.retry.RetryPolicy`, a heartbeat thread that died (torn
connection) is restarted on the next lease, and a torn *main*
connection triggers a reconnect attempt before the worker gives up —
so a broker restart stalls a worker instead of killing it.  Fault
plans (:mod:`repro.faults`) inject at the ``worker.lease``,
``worker.execute`` and ``worker.heartbeat`` hooks; the plan arrives
through the ``REPRO_FAULT_PLAN`` environment variable for forked fleet
workers.

Each worker installs a :class:`~repro.dist.cachetier.CacheTier`
(optional local disk + the broker's shared store) as the process-wide
active cache of :mod:`repro.dist.jobs`, so fleet jobs transparently
pool converged sizing results across workers.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid
from multiprocessing import AuthenticationError
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError
from repro.faults import injector as faults
from repro.retry import DEFAULT_RETRY, RetryPolicy

from repro.dist import jobs as dist_jobs
from repro.dist.cachetier import CacheTier
from repro.dist.queue import (
    _BROKER_GONE,
    DEFAULT_AUTHKEY,
    LONG_POLL_WAIT,
    JobFailure,
    JobId,
    JobPayload,
    connect,
    parse_address,
    truncate_failure_text,
)
from repro.exec.cache import ResultCache

__all__ = ["default_worker_id", "worker_loop"]

#: A leased job with its payload, as ``lease_jobs`` hands it out.
Job = Tuple[JobId, JobPayload]


def default_worker_id() -> str:
    """A fleet-unique worker name: host, pid, and a random suffix."""
    return (
        f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    )


def _execute(payload: JobPayload):
    """Run one job; exceptions become a shippable :class:`JobFailure`.

    Failure text is truncated to
    :data:`~repro.dist.queue.MAX_FAILURE_TEXT` characters per field — a
    job that crashes with a huge repr or locals dump must not bloat the
    broker's result store or the driver's logs.
    """
    try:
        return payload.fn(payload.item)
    except Exception as exc:
        return JobFailure(
            error=truncate_failure_text(repr(exc)),
            traceback=truncate_failure_text(traceback.format_exc()),
        )


def _block_cell(payload: JobPayload) -> Optional[Dict[str, Any]]:
    """The cell of a ``run_block`` job; ``None`` for any other job."""
    if payload.fn is not dist_jobs.run_block:
        return None
    try:
        return dist_jobs.block_cell(payload.item)
    except Exception:
        return None  # malformed: it runs alone and _execute reports it


def _groups(leased: List[Job]) -> List[List[Job]]:
    """Split one lease into execution groups, in lease order.

    Each run of consecutive ``run_block`` jobs of one cell is one
    group, simulated as one mega-batch block.  Every other job is a
    group of its own.
    """
    groups: List[List[Job]] = []
    previous = None
    for job in leased:
        cell = _block_cell(job[1])
        if cell is not None and cell == previous:
            groups[-1].append(job)
        else:
            groups.append([job])
        previous = cell
    return groups


def _execute_group(group: List[Job], fallbacks) -> List[Tuple[Any, float]]:
    """Run one group; ``(result, runtime)`` per job, in group order.

    Several blocks run as one :func:`~repro.dist.jobs.run_blocks` call,
    and each job reports its share of the call's wall time, split by
    replications, so the broker's cost model keeps learning per-job
    rates.  If the call raises, every job of the group re-runs alone
    through :func:`_execute`, so a failure stays one job's own
    :class:`JobFailure`; each such fallback bumps ``fallbacks``.
    """
    if len(group) > 1:
        t0 = time.monotonic()
        try:
            outcomes = dist_jobs.run_blocks(
                [payload.item for _, payload in group]
            )
        except Exception:
            fallbacks.inc()
        else:
            wall = time.monotonic() - t0
            reps = [outcome.stop - outcome.start for outcome in outcomes]
            total = sum(reps) or 1
            return [
                (outcome, wall * count / total)
                for outcome, count in zip(outcomes, reps)
            ]
    timed = []
    for _, payload in group:
        t0 = time.monotonic()
        result = _execute(payload)
        timed.append((result, time.monotonic() - t0))
    return timed


class _MetricsShipper:
    """Ships this process's counter deltas to the broker, exactly once.

    ``ship(send)`` snapshots the local registry, computes the increment
    since the last *successful* ship, and hands the delta envelope
    (``None`` when there is nothing new) to ``send``, which performs
    the actual RPC.  The baseline only advances after ``send`` returns,
    so a failed upload re-ships the same delta next time instead of
    losing it — and the lock is held across the RPC so the heartbeat
    thread and the main loop can never ship the same delta twice.

    With metrics disabled the registry snapshot is empty, every
    envelope is ``None``, and the broker sees plain heartbeats.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shipped: dict = {}

    def ship(self, send) -> None:
        with self._lock:
            registry = obs.registry()
            snap = registry.counters_snapshot()
            shipped = self._shipped
            deltas = {
                name: value - shipped.get(name, 0)
                for name, value in snap.items()
                if value != shipped.get(name, 0)
            }
            gauges = registry.gauges_snapshot()
            envelope = (
                {"counters": deltas, "gauges": gauges}
                if deltas or gauges
                else None
            )
            send(envelope)
            self._shipped = snap


class _Heartbeat(threading.Thread):
    """Beats over a dedicated broker connection until stopped.

    The ``worker.heartbeat`` fault hook fires before every beat: an
    injected stall freezes this thread's beats exactly as a frozen
    process would, so the broker's reaper path is exercised for real.
    """

    def __init__(self, address, authkey, worker_id, interval, shipper=None):
        super().__init__(name=f"heartbeat-{worker_id}", daemon=True)
        self._address = address
        self._authkey = authkey
        self._worker_id = worker_id
        self._interval = interval
        self._shipper = shipper
        # Not named ``_stop``: Thread.is_alive() calls its own private
        # ``_stop()`` method, which an Event attribute would shadow.
        self._halt = threading.Event()

    def run(self) -> None:
        try:
            broker = connect(self._address, authkey=self._authkey).broker
            while not self._halt.wait(self._interval):
                faults.fire("worker.heartbeat", worker_id=self._worker_id)
                if self._shipper is not None:
                    # Each beat piggybacks the metric delta since the
                    # last successful ship — the broker's fleet view
                    # stays live without extra RPCs.
                    self._shipper.ship(
                        lambda env: broker.heartbeat(self._worker_id, env)
                    )
                else:
                    broker.heartbeat(self._worker_id)
        except _BROKER_GONE:
            return

    def stop(self) -> None:
        self._halt.set()


def worker_loop(
    address,
    authkey: bytes = DEFAULT_AUTHKEY,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    max_idle: Optional[float] = None,
    worker_id: Optional[str] = None,
    retry: RetryPolicy = DEFAULT_RETRY,
) -> int:
    """Serve jobs from the broker at ``address`` until told to stop.

    Parameters
    ----------
    address:
        Broker address (``"host:port"`` or a pair).
    cache_dir / cache_max_bytes:
        Optional local disk tier under the shared cache (a worker
        without one still reads/writes the broker's shared store).
    max_idle:
        Exit after this many consecutive seconds without work
        (``None`` = serve forever); the number of jobs executed is
        returned.  An idle worker long-polls its lease call for at
        most :data:`~repro.dist.queue.LONG_POLL_WAIT` seconds, and
        never past this budget.
    retry:
        Backoff policy for broker connects and reconnects (a broker
        restart is survivable; a permanently dead broker ends the
        loop cleanly).
    """
    faults.install_from_env()
    obs.install_from_env()
    address = parse_address(address)
    worker_id = worker_id or default_worker_id()

    def _connect():
        connection = connect(address, authkey=authkey)
        return connection, connection.broker.config()["lease_timeout"]

    try:
        (connection, lease_timeout) = retry.call(
            _connect, describe="worker connect"
        )
    except (AuthenticationError, *_BROKER_GONE) as exc:
        host, port = address
        raise ReproError(
            f"cannot connect to broker at {host}:{port} ({exc!r}); is "
            f"'repro dist serve' running there with a matching "
            f"--authkey?"
        )
    broker = connection.broker
    beat_interval = max(lease_timeout / 4, 0.02)
    # Workers always count their work: the broker's fleet view (`repro
    # dist top`) is only as good as what workers ship, and the counting
    # cost is noise next to a job.  Restored on exit so an in-process
    # caller (tests) does not leak an enabled registry.
    metrics_were_enabled = obs.metrics_enabled()
    obs.enable_metrics()
    c_jobs = obs.counter("worker.jobs")
    c_failed = obs.counter("worker.jobs_failed")
    c_fallbacks = obs.counter("worker.group_fallbacks")
    shipper = _MetricsShipper()

    def _start_heartbeat() -> _Heartbeat:
        heartbeat = _Heartbeat(
            address,
            authkey,
            worker_id,
            interval=beat_interval,
            shipper=shipper,
        )
        heartbeat.start()
        return heartbeat

    heartbeat = _start_heartbeat()
    local = (
        ResultCache(cache_dir, max_bytes=cache_max_bytes)
        if cache_dir
        else None
    )
    previous_cache = dist_jobs.set_active_cache(
        CacheTier(remote=broker, local=local)
    )
    executed = 0
    idle_since = time.monotonic()  # end of the last lease's work
    # The current lease's finished-but-unshipped completions: (job_id,
    # result, runtime).  Broker-side completion is idempotent, so this
    # buffer is safe to replay wholesale after a reconnect — losing it
    # to a worker death only re-runs the jobs, it never corrupts a
    # result.
    outbox: list = []

    def _flush() -> None:
        """Upload the buffered lease's completions in one RPC."""
        if not outbox:
            return
        batch = list(outbox)
        shipper.ship(
            lambda env: broker.complete_many(worker_id, batch, env)
        )
        outbox.clear()

    def _reconnect() -> bool:
        """Try to re-establish the main connection (broker restart)."""
        nonlocal broker, connection
        try:
            (connection, _) = retry.call(
                _connect, describe="worker reconnect"
            )
        except Exception:
            return False
        broker = connection.broker
        # The tier must follow the new connection: proxies bound to
        # the dead broker raise forever.
        tier = dist_jobs.active_cache()
        if isinstance(tier, CacheTier):
            tier.remote = broker
        return True

    try:
        while True:
            # A heartbeat thread killed by a torn connection (flaky
            # transport, broker restart) is restarted here, so a
            # transient drop costs at most one reap, not the worker.
            if not heartbeat.is_alive():
                heartbeat = _start_heartbeat()
            # Long-poll for work, never past the idle budget left.
            wait = LONG_POLL_WAIT
            if max_idle is not None:
                left = idle_since + max_idle - time.monotonic()
                wait = min(wait, max(left, 0.0))
            try:
                # Results first: a lease call hands back every job this
                # worker still holds, so none may wait in the outbox.
                _flush()
                leased = broker.lease_jobs(worker_id, wait)
                if leased:
                    # Only granted leases count: how many empty long
                    # polls an idle worker makes depends on timing.
                    faults.fire(
                        "worker.lease", worker_id=worker_id, jobs=len(leased)
                    )
            except _BROKER_GONE:
                if _reconnect():
                    continue  # the next lease call hands this one back
                break
            if not leased:
                if (
                    max_idle is not None
                    and time.monotonic() - idle_since >= max_idle
                ):
                    break
                continue
            for group in _groups(leased):
                try:
                    for job_id, _ in group:
                        faults.fire(
                            "worker.execute",
                            worker_id=worker_id,
                            job_id=job_id,
                        )
                    with obs.span("worker.job") as job_span:
                        job_span.set("job", list(group[0][0]))
                        job_span.set("jobs", len(group))
                        timed = _execute_group(group, c_fallbacks)
                    for (job_id, _), (result, runtime) in zip(group, timed):
                        c_jobs.inc()
                        if isinstance(result, JobFailure):
                            c_failed.inc()
                        # Shipped with the lease's other results
                        # before the next lease call; that RPC carries
                        # the metric delta too, so a worker that dies
                        # right after it has already shipped those
                        # jobs' counters.
                        outbox.append((job_id, result, runtime))
                        executed += 1
                except _BROKER_GONE:
                    if not _reconnect():
                        return executed
                    # Run the rest of the lease; a group this left
                    # unfinished is handed back on the next lease call.
                    continue
            idle_since = time.monotonic()
    finally:
        heartbeat.stop()
        dist_jobs.set_active_cache(previous_cache)
        if not metrics_were_enabled:
            obs.disable_metrics()
    return executed
