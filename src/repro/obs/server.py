"""The fleet observatory: a stdlib asyncio HTTP service over ``obs``.

One :class:`ObsServer` exposes the broker's existing telemetry — the
very same :meth:`~repro.dist.queue.Broker.obs_snapshot` dict that
``repro dist top`` and ``repro obs dump`` render — to anything that
speaks HTTP:

========== ==========================================================
``/``          the single-file live dashboard (``obs.dashboard``)
``/healthz``   liveness + broker reachability (200 ok / 503 stale)
``/snapshot``  the latest full fleet snapshot as JSON
``/metrics``   Prometheus text exposition v0.0.4 (``obs.promexport``)
``/events``    Server-Sent Events: one ``snapshot`` event per sample,
               with counter deltas, backfilled from this service's own
               last 512 samples via ``Last-Event-ID`` or ``?since=N``
========== ==========================================================

Every sample the service takes is stamped with ``seq``, its own count
of successful samples (the SSE event id).  The count belongs to the
service, not to the broker, so it keeps rising across a broker restart
and a stream never mistakes the new broker's samples for ones it
already sent.

Two deployment modes, same server:

* **in-process** (``repro dist serve --http PORT``) — a
  :class:`LocalBrokerSource` calls the :class:`Broker` object directly,
  no extra sockets between sampler and queue.
* **standalone** (``repro serve --broker host:port``) — a
  :class:`RemoteBrokerSource` samples over the broker RPC through a
  :class:`~repro.dist.executor.DistExecutor`, inheriting its
  ``RetryPolicy``-wrapped reconnects.  When the broker stays gone the
  service *degrades instead of dying*: ``/healthz`` flips to 503,
  ``/snapshot`` and ``/metrics`` keep serving the last snapshot marked
  ``stale`` (``repro_scrape_stale 1``), SSE clients get a ``status``
  event — and everything recovers by itself once sampling succeeds
  again.

The HTTP side is deliberately minimal (GET only, ``Connection:
close`` except for the event stream) — it is an observability
endpoint, not a web framework.  Broker RPCs never run on the event
loop: they are funneled through a dedicated single-thread executor,
both to keep the loop responsive and because one broker connection
serves one thread at a time.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError
from repro.obs import log
from repro.obs.dashboard import DASHBOARD_HTML
from repro.obs.promexport import render_prometheus

__all__ = [
    "ObsServer",
    "LocalBrokerSource",
    "RemoteBrokerSource",
    "counter_deltas",
]

#: Sampling cadence default (seconds) — also the dashboard's refresh.
DEFAULT_INTERVAL = 2.0

#: SSE keepalive comment cadence: detects dead client connections.
_KEEPALIVE = 15.0

#: Samples kept for SSE backfill — at the default 2 s cadence about 17
#: minutes of history in a few MB.
_MIRROR_CAPACITY = 512

#: Snapshot sections whose numeric leaves are cumulative counts worth
#: diffing for an SSE delta payload.  Gauges (pending, depth, rates)
#: are levels, not counts — clients read those from the snapshot
#: itself.
_DELTA_SECTIONS = (
    ("queue",),
    ("cache",),
    ("fleet", "counters"),
)


def counter_deltas(
    previous: Optional[Dict[str, Any]], current: Dict[str, Any]
) -> Dict[str, float]:
    """Flat ``section.name -> increase`` between two fleet snapshots.

    Only positive movement is reported: a key that shrank (a worker
    reaped, a registry reset) is simply absent, so consumers summing
    deltas never see fleet totals go backwards.
    """
    deltas: Dict[str, float] = {}
    for path in _DELTA_SECTIONS:
        cur: Any = current
        prev: Any = previous
        for key in path:
            cur = cur.get(key, {}) if isinstance(cur, dict) else {}
            prev = prev.get(key, {}) if isinstance(prev, dict) else {}
        if not isinstance(cur, dict):
            continue
        prefix = ".".join(path)
        for name, value in cur.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            before = prev.get(name, 0) if isinstance(prev, dict) else 0
            if not isinstance(before, (int, float)) or isinstance(before, bool):
                before = 0
            change = value - before
            if change > 0:
                deltas["%s.%s" % (prefix, name)] = change
    return deltas


class LocalBrokerSource:
    """Sample a :class:`~repro.dist.queue.Broker` living in-process."""

    def __init__(self, broker) -> None:
        self._broker = broker

    def describe(self) -> str:
        return "in-process broker"

    def sample(self) -> Dict[str, Any]:
        return self._broker.obs_snapshot()


class RemoteBrokerSource:
    """Sample a remote broker over the broker RPC.

    Built on :class:`~repro.dist.executor.DistExecutor`, so every
    sample inherits its retry policy: transient refusals are retried
    with backoff and a torn connection is re-dialed from scratch.  A
    broker that stays gone raises
    :class:`~repro.errors.BrokerUnavailableError`, which the server
    translates into stale-data mode rather than an exit.
    """

    def __init__(self, address, authkey=None, retry=None) -> None:
        from repro.dist.executor import DistExecutor
        from repro.dist.queue import DEFAULT_AUTHKEY

        kwargs: Dict[str, Any] = {
            "authkey": DEFAULT_AUTHKEY if authkey is None else authkey,
        }
        if retry is not None:
            kwargs["retry"] = retry
        self._executor = DistExecutor(address, **kwargs)

    def describe(self) -> str:
        host, port = self._executor.address
        return "broker at %s:%s" % (host, port)

    def sample(self) -> Dict[str, Any]:
        return self._executor.obs_snapshot()


class ObsServer:
    """The HTTP observability service (see module docstring).

    Parameters
    ----------
    source:
        A :class:`LocalBrokerSource` or :class:`RemoteBrokerSource`.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (tests), the
        real one is :attr:`address` after start.
    interval:
        Sampling cadence in seconds; also the SSE event cadence.
    stale_after:
        Age (seconds) past which the served data is marked stale and
        ``/healthz`` degrades; default ``max(3 * interval, 5)``.
    """

    def __init__(
        self,
        source,
        host: str = "127.0.0.1",
        port: int = 0,
        interval: float = DEFAULT_INTERVAL,
        stale_after: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ReproError(f"interval must be > 0, got {interval}")
        self.source = source
        self.host = host
        self.port = port
        self.interval = float(interval)
        self.stale_after = (
            float(stale_after)
            if stale_after is not None
            else max(3.0 * self.interval, 5.0)
        )
        self.address: Optional[Tuple[str, int]] = None
        # Sampler state, guarded by _state_lock (the sampler thread pool
        # and request handlers both read it).
        self._state_lock = threading.Lock()
        self._latest: Optional[Dict[str, Any]] = None
        self._previous: Optional[Dict[str, Any]] = None
        self._sampled_at: Optional[float] = None
        self._broker_ok = False
        self._samples = 0
        self._failures = 0
        # The last samples, for SSE backfill; it serves even while the
        # broker is unreachable.
        self._mirror: deque = deque(maxlen=_MIRROR_CAPACITY)
        self._subscribers: List[asyncio.Queue] = []
        # All broker RPCs go through this one thread (a broker
        # connection serves one thread at a time, and a slow RPC must
        # not stall the accept loop).
        self._rpc_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-obs-rpc"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._sampler_task: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------

    def start_in_thread(self) -> "ObsServer":
        """Run the service on a daemon thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-obs-http", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise ReproError(
                f"observability server failed to start on "
                f"{self.host}:{self.port}: {self._startup_error!r}"
            )
        if self.address is None:
            raise ReproError(
                "observability server did not start within 10s"
            )
        return self

    def serve_forever(self) -> None:
        """Run the service in this thread (blocks until stopped)."""
        self._run_loop()
        if self._startup_error is not None:
            raise ReproError(
                f"observability server failed to start on "
                f"{self.host}:{self.port}: {self._startup_error!r}"
            )

    def stop(self) -> None:
        """Stop sampling, close the listener, end the thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._begin_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._rpc_pool.shutdown(wait=False)

    def _begin_shutdown(self) -> None:
        if self._sampler_task is not None:
            self._sampler_task.cancel()
        for queue in list(self._subscribers):
            queue.put_nowait(None)  # wake handlers so they close
        if self._server is not None:
            self._server.close()
        assert self._loop is not None
        self._loop.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(
                        self._handle_connection, self.host, self.port
                    )
                )
            except OSError as exc:
                self._startup_error = exc
                return
            sockets = self._server.sockets or ()
            for sock in sockets:
                self.address = sock.getsockname()[:2]
                break
            self._sampler_task = loop.create_task(self._sampler())
            self._started.set()
            log.info(
                "obs server listening on http://%s:%s/ (%s)",
                self.address[0],
                self.address[1],
                self.source.describe(),
            )
            loop.run_forever()
        finally:
            self._started.set()
            try:
                if self._server is not None:
                    self._server.close()
                    loop.run_until_complete(self._server.wait_closed())
                pending = [
                    t for t in asyncio.all_tasks(loop) if not t.done()
                ]
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()
                self._loop = None

    # -- sampling -------------------------------------------------------

    async def _sampler(self) -> None:
        """Sample the broker forever, fanning events to subscribers."""
        while True:
            await self._sample_once()
            await asyncio.sleep(self.interval)

    async def _sample_once(self) -> bool:
        assert self._loop is not None
        try:
            snapshot = await self._loop.run_in_executor(
                self._rpc_pool, self.source.sample
            )
        except Exception as exc:  # broker gone: degrade, never die
            transitioned = False
            with self._state_lock:
                if self._broker_ok or self._samples == 0:
                    transitioned = self._broker_ok
                self._broker_ok = False
                self._failures += 1
            if transitioned:
                log.info(
                    "obs server: %s unreachable (%r); serving stale data",
                    self.source.describe(),
                    exc,
                )
                self._publish(
                    {
                        "event": "status",
                        "data": {"broker": "unreachable"},
                        "id": None,
                    }
                )
            return False
        with self._state_lock:
            previous = self._latest
            self._previous = previous
            self._latest = snapshot
            self._sampled_at = time.monotonic()
            self._broker_ok = True
            self._samples += 1
            snapshot["seq"] = self._samples
            self._mirror.append(snapshot)
        payload = dict(snapshot)
        payload["stale"] = False
        payload["delta"] = counter_deltas(previous, snapshot)
        self._publish(
            {
                "event": "snapshot",
                "data": payload,
                "id": snapshot.get("seq"),
            }
        )
        return True

    def _publish(self, event: Dict[str, Any]) -> None:
        for queue in list(self._subscribers):
            queue.put_nowait(event)

    def _current(self) -> Tuple[Optional[Dict[str, Any]], bool, float]:
        """``(snapshot, stale, age_seconds)`` of the served view."""
        with self._state_lock:
            snapshot = self._latest
            sampled_at = self._sampled_at
            broker_ok = self._broker_ok
        if snapshot is None or sampled_at is None:
            return None, True, float("inf")
        age = time.monotonic() - sampled_at
        stale = (not broker_ok) or age > self.stale_after
        return snapshot, stale, age

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            writer.close()
            return
        try:
            head = request.decode("latin-1").split("\r\n")
            method, target, _version = head[0].split(" ", 2)
            headers = {}
            for line in head[1:]:
                if ":" in line:
                    key, _, value = line.partition(":")
                    headers[key.strip().lower()] = value.strip()
        except ValueError:
            await self._respond(
                writer, 400, "text/plain; charset=utf-8", b"bad request\n"
            )
            return
        if method != "GET":
            await self._respond(
                writer,
                405,
                "text/plain; charset=utf-8",
                b"only GET is supported\n",
            )
            return
        parts = urlsplit(target)
        try:
            await self._route(writer, parts.path, parts.query, headers)
        except ConnectionError:
            pass
        finally:
            if not writer.is_closing():
                writer.close()

    async def _route(self, writer, path, query, headers) -> None:
        if path == "/":
            await self._respond(
                writer,
                200,
                "text/html; charset=utf-8",
                DASHBOARD_HTML.encode("utf-8"),
            )
        elif path == "/healthz":
            await self._serve_healthz(writer)
        elif path == "/snapshot":
            await self._serve_snapshot(writer)
        elif path == "/metrics":
            await self._serve_metrics(writer)
        elif path == "/events":
            await self._serve_events(writer, query, headers)
        else:
            await self._respond(
                writer,
                404,
                "text/plain; charset=utf-8",
                b"unknown path; try /, /healthz, /snapshot, /metrics, "
                b"/events\n",
            )

    async def _respond(
        self, writer, status: int, content_type: str, body: bytes
    ) -> None:
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            503: "Service Unavailable",
        }
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
            "\r\n" % (status, reasons[status], content_type, len(body))
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- endpoints ------------------------------------------------------

    async def _serve_healthz(self, writer) -> None:
        snapshot, stale, age = self._current()
        with self._state_lock:
            body = {
                "status": "ok" if (snapshot and not stale) else "stale",
                "broker": "ok" if self._broker_ok else "unreachable",
                "source": self.source.describe(),
                "age_seconds": None if snapshot is None else age,
                "samples": self._samples,
                "failures": self._failures,
            }
        await self._respond(
            writer,
            200 if body["status"] == "ok" else 503,
            "application/json",
            (json.dumps(body) + "\n").encode("utf-8"),
        )

    async def _serve_snapshot(self, writer) -> None:
        await self._sample_once()  # serve this instant when reachable
        snapshot, stale, age = self._current()
        if snapshot is None:
            await self._respond(
                writer,
                503,
                "application/json",
                b'{"error": "no snapshot sampled yet"}\n',
            )
            return
        payload = dict(snapshot)
        payload["stale"] = stale
        payload["age_seconds"] = age
        await self._respond(
            writer,
            200,
            "application/json",
            (json.dumps(payload) + "\n").encode("utf-8"),
        )

    async def _serve_metrics(self, writer) -> None:
        await self._sample_once()  # a scrape reads this instant's truth
        snapshot, stale, age = self._current()
        if snapshot is None:
            await self._respond(
                writer,
                503,
                "text/plain; charset=utf-8",
                b"# no snapshot sampled yet\n",
            )
            return
        text = render_prometheus(snapshot, stale=stale, age_seconds=age)
        await self._respond(
            writer,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

    async def _serve_events(self, writer, query, headers) -> None:
        """The SSE stream: mirror backfill, then live samples.

        A ``Last-Event-ID`` header wins over ``?since=``: a browser's
        EventSource reconnects to the URL it first opened (the
        dashboard's ``?since=0``) and names the last event it saw in
        that header, so it must resume there, not replay the mirror.
        """
        raw = headers.get("last-event-id")
        if raw is None:
            raw = parse_qs(query).get("since", [None])[0]
        try:
            since = None if raw is None else int(raw)
        except ValueError:
            since = None
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: keep-alive\r\n"
            b"\r\n"
        )
        await writer.drain()
        queue: asyncio.Queue = asyncio.Queue()
        # Subscribe *before* backfilling so no sample lands between the
        # backfill read and the live tail; duplicates are filtered by
        # seq below.
        self._subscribers.append(queue)
        last_seq = 0
        try:
            if since is not None:
                for entry in self._backfill(since):
                    seq = entry["seq"]
                    payload = dict(entry)
                    payload["stale"] = False
                    payload.setdefault("delta", {})
                    await self._write_event(
                        writer, "snapshot", payload, seq
                    )
                    last_seq = max(last_seq, seq)
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=_KEEPALIVE
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                if event is None:  # server shutting down
                    break
                seq = event.get("id")
                if (
                    event["event"] == "snapshot"
                    and seq is not None
                    and seq <= last_seq
                ):
                    continue  # already delivered by the backfill
                await self._write_event(
                    writer, event["event"], event["data"], seq
                )
                if seq is not None:
                    last_seq = max(last_seq, seq)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                self._subscribers.remove(queue)
            except ValueError:
                pass

    def _backfill(self, since: int) -> List[Dict[str, Any]]:
        """Mirrored samples with ``seq`` greater than ``since``."""
        with self._state_lock:
            return [s for s in self._mirror if s["seq"] > since]

    async def _write_event(self, writer, event, data, seq) -> None:
        lines = []
        if seq is not None:
            lines.append("id: %s" % seq)
        lines.append("event: %s" % event)
        lines.append("data: %s" % json.dumps(data))
        writer.write(("\n".join(lines) + "\n\n").encode("utf-8"))
        await writer.drain()
