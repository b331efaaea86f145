"""``DistExecutor`` — the driver-side handle on a broker fleet.

``map(fn, items)`` runs a batch of pure jobs on the fleet under the
determinism contract of :func:`repro.exec.pool.parallel_map`: results
are merged by submission index, never by completion order or worker
identity, so a map returns exactly what the serial loop would.
:func:`repro.dist.fleet.run_matrix` (``repro dist run``) is its
experiment caller, one whole scenario×budget cell per job block.

The map is a long-poll loop over :meth:`Broker.fetch_ready`: each call
returns as soon as the next result lands, so results stream back as a
growing contiguous prefix (firing ``on_result`` in order) with no
sleeps in between; every call drives the broker's dead-worker reaping,
and a :class:`~repro.dist.queue.JobFailure` shipped back by any worker
re-raises here with the worker-side traceback attached.

Robustness: every broker RPC runs under a
:class:`~repro.retry.RetryPolicy` — a dropped connection tears down
the cached proxy and reconnects on the next attempt, so transient
transport blips are invisible above the executor.  A broker that stays
gone (or that restarted and forgot the batch) is *broker loss*: the
unfinished tail of the batch is re-run on the **local process pool**
with the same submission-order merge, so the combined results are
bitwise-identical to what the fleet would have produced (jobs are
pure; completed prefix + locally computed tail = the serial answer).
Degraded, not dead; :attr:`DistExecutor.fallbacks` counts it.

Fault plans (:mod:`repro.faults`) inject at the ``executor.submit``
and ``executor.fetch_ready`` hooks.
"""

from __future__ import annotations

import time
import uuid
from multiprocessing import AuthenticationError
from typing import Any, Callable, Iterable, List, Optional

from repro import obs
from repro.dist.costmodel import job_features
from repro.dist.queue import (
    _BROKER_GONE,
    DEFAULT_AUTHKEY,
    LONG_POLL_WAIT,
    BrokerConnection,
    JobFailure,
    JobPayload,
    connect,
    parse_address,
)
from repro.errors import BrokerUnavailableError, ReproError
from repro.faults import injector as faults
from repro.retry import DEFAULT_RETRY, RetryPolicy

__all__ = ["DistExecutor"]

#: Seconds without progress after which a fleet with **zero** live
#: workers is an error instead of an indefinite hang.  Covers workers
#: that were never started and fleets whose last worker died mid-run;
#: generous enough for a `dist run` issued while the workers are still
#: spinning up.
NO_WORKER_GRACE = 60.0


class DistExecutor:
    """Executes job batches on a broker fleet with an ordered merge.

    Parameters
    ----------
    address:
        Broker address (``"host:port"`` or an ``(host, port)`` pair).
    authkey:
        Shared secret of the fleet (must match ``repro dist serve``).
    timeout:
        Optional overall bound per :meth:`map` call; ``None`` waits as
        long as live workers exist (long fleet runs legitimately take
        hours, so there is no default overall bound).  A fleet with no
        live worker fails after :data:`NO_WORKER_GRACE` seconds without
        progress either way.
    retry:
        Backoff policy for broker connects and per-RPC transient
        failures (each retry reconnects from scratch).
    fallback_jobs:
        Process count for the local fallback pool (``None``/``0`` =
        every CPU this process may use, matching
        :func:`~repro.exec.pool.resolve_jobs`).

    Attributes
    ----------
    fallbacks:
        Number of :meth:`map` calls that degraded to the local pool.
    """

    def __init__(
        self,
        address,
        authkey: bytes = DEFAULT_AUTHKEY,
        timeout: Optional[float] = None,
        retry: RetryPolicy = DEFAULT_RETRY,
        fallback_jobs: Optional[int] = None,
    ) -> None:
        self.address = parse_address(address)
        self.authkey = authkey
        self.timeout = timeout
        self.retry = retry
        self.fallback_jobs = fallback_jobs
        self.fallbacks = 0
        self._connection: Optional[BrokerConnection] = None

    # -- transport ------------------------------------------------------

    def _connect_raw(self):
        """The cached proxy, reconnecting if the last RPC tore it down.

        Raises raw transport errors (so the retry policy can classify
        them); user-facing wrapping happens in :meth:`_broker`.
        """
        if self._connection is None:
            self._connection = connect(self.address, authkey=self.authkey)
        return self._connection.broker

    def _broker(self):
        try:
            return self.retry.call(
                self._connect_raw, describe="broker connect"
            )
        except (AuthenticationError, *_BROKER_GONE) as exc:
            host, port = self.address
            raise ReproError(
                f"cannot connect to broker at {host}:{port} "
                f"({exc!r}); is 'repro dist serve' running there "
                f"with a matching --authkey?"
            )

    def _rpc(self, describe: str, call: Callable[[Any], Any]) -> Any:
        """One broker RPC under the retry policy.

        A transport failure drops the cached connection, so the next
        attempt reconnects from scratch — the only way back to a
        restarted broker, since a proxy never outlives its TCP
        connection.  Exhausted retries raise
        :class:`BrokerUnavailableError` for :meth:`map` to answer with
        the local-pool fallback.
        """

        def attempt():
            try:
                return call(self._connect_raw())
            except _BROKER_GONE:
                self._connection = None
                raise

        try:
            return self.retry.call(attempt, describe=describe)
        except _BROKER_GONE as exc:
            raise BrokerUnavailableError(
                f"cannot connect to broker at {self.address[0]}:"
                f"{self.address[1]} for {describe} after "
                f"{self.retry.attempts} attempt(s): {exc!r}"
            ) from exc

    def stats(self) -> dict:
        """Queue diagnostics of the connected broker.

        Retry-wrapped like every other RPC (a one-shot ``repro obs
        dump --dist`` or ``dist top`` refresh must survive the same
        transient refusals the map loop already shrugs off); exhausted
        retries raise :class:`BrokerUnavailableError`.
        """
        return self._rpc("broker stats", lambda b: b.stats())

    def cache_stats(self) -> dict:
        """Shared-cache-store diagnostics of the connected broker."""
        return self._rpc("cache stats", lambda b: b.cache_stats())

    def obs_snapshot(self) -> dict:
        """The broker's consistent fleet telemetry view (one RPC).

        Queue + cache stats, per-worker shipped metrics, and fleet
        counter totals, all read under one broker lock hold — what
        ``repro dist top`` and ``repro obs dump --dist`` render.
        """
        return self._rpc("obs snapshot", lambda b: b.obs_snapshot())

    # -- the map --------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Run ``fn`` over ``items`` on the fleet, merged by index.

        Equivalent to ``[fn(item) for item in items]`` for pure ``fn``
        (the :mod:`repro.exec.pool` determinism contract), for any
        number of workers, lease order, or worker death mid-job — and
        for broker death too.
        ``on_result(index, result)`` fires in index order as the
        completed prefix grows.
        """
        item_list = list(items)
        features = [job_features(fn, item) for item in item_list]
        payloads = [JobPayload(fn, item) for item in item_list]
        if not payloads:
            return []
        results: List[Any] = []
        try:
            with obs.span("executor.map") as span:
                span.set("jobs", len(payloads))
                return self._map_fleet(
                    fn, payloads, results, on_result, features
                )
        except BrokerUnavailableError as exc:
            # Broker loss: ``results`` holds the contiguous completed
            # prefix at the moment of loss.
            return self._map_fallback(fn, payloads, results, on_result, exc)

    def _map_fleet(
        self,
        fn: Callable[[Any], Any],
        payloads: List[JobPayload],
        results: List[Any],
        on_result: Optional[Callable[[int, Any], None]],
        features: Optional[List[dict]] = None,
    ) -> List[Any]:
        """The fleet result loop; appends to ``results`` as it merges.

        Never sleeps: each ``fetch_ready`` long-polls for at most
        :data:`LONG_POLL_WAIT` seconds (less when the ``timeout`` is
        nearer), so the deadline and no-worker checks below run at
        least that often.
        """
        self._broker()  # connect first: a clear error if nobody listens
        batch_id = uuid.uuid4().hex

        def _submit(b):
            faults.fire("executor.submit", batch_id=batch_id)
            return b.submit(batch_id, payloads, features=features)

        self._rpc("batch submit", _submit)
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        last_progress = time.monotonic()
        try:
            while len(results) < len(payloads):
                wait = LONG_POLL_WAIT
                if deadline is not None:
                    wait = min(wait, max(deadline - time.monotonic(), 0.0))

                def _fetch(b):
                    faults.fire("executor.fetch_ready", batch_id=batch_id)
                    return b.fetch_ready(batch_id, len(results), wait)

                ready = self._rpc("result fetch", _fetch)
                for result in ready:
                    if isinstance(result, JobFailure):
                        raise ReproError(
                            f"distributed job {len(results)} failed: "
                            f"{result.error}\n--- worker traceback ---\n"
                            f"{result.traceback}"
                        )
                    if on_result is not None:
                        on_result(len(results), result)
                    results.append(result)
                if len(results) >= len(payloads):
                    break
                now = time.monotonic()
                # The overall bound applies on *every* iteration — a
                # slow fleet trickling one result per poll must not
                # dodge it indefinitely.
                if deadline is not None and now > deadline:
                    done, total = self._rpc(
                        "batch status", lambda b: b.batch_status(batch_id)
                    )
                    live = self._rpc(
                        "broker stats", lambda b: b.stats()
                    )["workers"]
                    cause = (
                        "is a 'repro dist worker' connected?"
                        if live == 0
                        else "the live workers did not finish within "
                        "--timeout"
                    )
                    raise ReproError(
                        f"distributed batch timed out after "
                        f"{self.timeout:.1f}s with {done}/{total} jobs "
                        f"done ({live} live worker(s)); {cause}"
                    )
                if ready:
                    last_progress = now
                    continue
                if now - last_progress > NO_WORKER_GRACE:
                    # Stalled: fine while live workers grind a long
                    # job, an error once nobody is left to make
                    # progress — hanging forever helps no one.
                    if self._rpc(
                        "broker stats", lambda b: b.stats()
                    )["workers"] == 0:
                        done, total = self._rpc(
                            "batch status",
                            lambda b: b.batch_status(batch_id),
                        )
                        raise ReproError(
                            f"no live workers for "
                            f"{NO_WORKER_GRACE:.0f}s with "
                            f"{done}/{total} jobs done; start "
                            f"'repro dist worker' processes against "
                            f"this broker"
                        )
                    last_progress = now
        finally:
            # Best-effort: if the broker is gone (or already dropped
            # the batch), failing the cleanup RPC must not mask the
            # propagating error — the TTL reaps undropped batches.
            # Through the current connection: the loop may have
            # reconnected since the submit.
            try:
                self._connect_raw().drop_batch(batch_id)
            except Exception:
                pass
        return results

    def _map_fallback(
        self,
        fn: Callable[[Any], Any],
        payloads: List[JobPayload],
        results: List[Any],
        on_result: Optional[Callable[[int, Any], None]],
        cause: BaseException,
    ) -> List[Any]:
        """Re-run the unfinished tail on the local pool, same order.

        ``results`` is the contiguous completed prefix the fleet
        delivered before the loss; jobs are pure, so computing the tail
        locally and concatenating reproduces the fleet answer exactly.
        ``on_result`` indices continue from the prefix.
        """
        from repro.exec.pool import parallel_map

        self.fallbacks += 1
        obs.counter("executor.fallbacks").inc()
        done = len(results)

        def _shifted(index: int, result: Any) -> None:
            if on_result is not None:
                on_result(done + index, result)

        tail = parallel_map(
            fn,
            [payload.item for payload in payloads[done:]],
            jobs=self.fallback_jobs,
            on_result=_shifted,
        )
        return results + tail
