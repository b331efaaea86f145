"""The fleet observatory: a stdlib threaded HTTP service over ``obs``.

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
               last 512 events via ``Last-Event-ID`` or ``?since=N``
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
endpoint, not a web framework.  It runs like the broker's server: one
thread per connection (:class:`socketserver.ThreadingTCPServer`) and
one sampler thread.  One condition wakes every event stream when a
sample or a status event lands, and one lock keeps broker RPCs to one
at a time, because one broker connection serves one thread at a time.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional, Set, Tuple
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

#: Seconds a connection may send nothing while its request is read, or
#: hold up one write of the response (an event stream's too).
_REQUEST_TIMEOUT = 10.0

#: Events kept for SSE backfill — at the default 2 s cadence about 17
#: minutes of samples in a few MB (a broker outage adds one ``status``
#: event).
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


def _shut_down(sock: socket.socket) -> None:
    """Wake every thread blocked on ``sock``: a read returns end of
    file, a write fails, an ``accept()`` or ``select()`` returns."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected (any more)


def _sse_event(event: str, data: Dict[str, Any], seq: Optional[int]) -> bytes:
    lines = []
    if seq is not None:
        lines.append("id: %s" % seq)
    lines.append("event: %s" % event)
    lines.append("data: %s" % json.dumps(data))
    return ("\n".join(lines) + "\n\n").encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """One connection: one GET, answered by the server's
    :class:`ObsServer`."""

    protocol_version = "HTTP/1.1"  # every response sends Connection: close
    timeout = _REQUEST_TIMEOUT

    def setup(self) -> None:
        super().setup()
        self.server.observatory._track(self.connection)

    def finish(self) -> None:
        # Untracked before the server closes the socket, so stop()
        # only ever shuts down a socket that is still open.
        self.server.observatory._untrack(self.connection)
        super().finish()

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client hung up, or stop() shut the connection down

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False  # the stdlib answered 400 already
        if self.command != "GET":
            self.respond(
                405, "text/plain; charset=utf-8", b"only GET is supported\n"
            )
            return False
        return True

    def do_GET(self) -> None:
        self.server.observatory._route(self)

    def respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """No log line per request."""


class _Listener(socketserver.ThreadingTCPServer):
    """The listening socket.  Each connection gets its own non-daemon
    thread, which :meth:`server_close` joins.

    Not :class:`http.server.HTTPServer`: its ``server_bind`` makes a
    reverse-DNS lookup of the host every time it starts.
    """

    allow_reuse_address = True  # a restarted service rebinds at once

    def __init__(self, observatory: "ObsServer") -> None:
        self.observatory = observatory
        super().__init__((observatory.host, observatory.port), _Handler)


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
        Sampling cadence in seconds; also the SSE event cadence.  The
        served data is marked stale, and ``/healthz`` degrades, once
        the last sample is older than :attr:`stale_after`,
        ``max(3 * interval, 5)`` seconds.
    """

    def __init__(
        self,
        source,
        host: str = "127.0.0.1",
        port: int = 0,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ReproError(f"interval must be > 0, got {interval}")
        self.source = source
        self.host = host
        self.port = port
        self.interval = float(interval)
        self.stale_after = max(3.0 * self.interval, 5.0)
        self.address: Optional[Tuple[str, int]] = None
        self._listener: Optional[_Listener] = None
        self._accepter: Optional[threading.Thread] = None
        self._sampler: Optional[threading.Thread] = None
        # Broker RPCs one at a time: a broker connection serves one
        # thread at a time.
        self._rpc_lock = threading.Lock()
        # Everything below is guarded by _changed, which wakes every
        # event stream when an event lands, and every waiter at stop().
        self._changed = threading.Condition()
        self._latest: Optional[Dict[str, Any]] = None
        self._sampled_at: Optional[float] = None
        self._broker_ok = False
        self._samples = 0
        self._failures = 0
        # The last events as (number, event, data, seq), for SSE
        # backfill and live delivery; it serves even while the broker
        # is unreachable.
        self._events: deque = deque(maxlen=_MIRROR_CAPACITY)
        self._published = 0
        self._connections: Set[socket.socket] = set()
        self._stopping = False

    # -- lifecycle ------------------------------------------------------

    def start_in_thread(self) -> "ObsServer":
        """Bind, then accept on a daemon thread; returns ``self``."""
        self._accepter = threading.Thread(
            target=self._accept,
            args=(self._start(),),
            name="repro-obs-http",
            daemon=True,
        )
        self._accepter.start()
        return self

    def serve_forever(self) -> None:
        """Bind, then accept in this thread until :meth:`stop`."""
        self._accept(self._start())

    def _start(self) -> _Listener:
        """Bind the listener and start the sampler."""
        try:
            self._listener = listener = _Listener(self)
        except OSError as exc:
            raise ReproError(
                f"observability server failed to start on "
                f"{self.host}:{self.port}: {exc!r}"
            ) from exc
        self.address = listener.server_address[:2]
        self._sampler = threading.Thread(
            target=self._sample_forever, name="repro-obs-sampler", daemon=True
        )
        self._sampler.start()
        log.info(
            "obs server listening on http://%s:%s/ (%s)",
            self.address[0],
            self.address[1],
            self.source.describe(),
        )
        return listener

    def _accept(self, listener: _Listener) -> None:
        while not self._stopping:
            # Returns after each connection, and at once when stop()
            # shuts the listener down.
            listener.handle_request()

    def stop(self) -> None:
        """Stop serving; on return every connection and the listener are
        closed and every thread of the service is joined.

        Idempotent.  Socket shutdown bounds it, not a timer: the woken
        event streams end, and ``shutdown(SHUT_RDWR)`` wakes a handler
        blocked reading from a client that sent no request, or writing
        to one that does not read (as :meth:`BrokerServer.stop
        <repro.dist.queue.BrokerServer.stop>` does).
        """
        with self._changed:
            self._stopping = True
            self._changed.notify_all()
        listener = self._listener
        if listener is None:
            return
        self._listener = None
        _shut_down(listener.socket)  # wakes the accept loop
        if self._accepter is not None:
            self._accepter.join()
            self._accepter = None
        with self._changed:
            for connection in self._connections:
                _shut_down(connection)
        listener.server_close()  # closes the listener, joins each handler
        if self._sampler is not None:
            self._sampler.join()
            self._sampler = None

    def _track(self, connection: socket.socket) -> None:
        with self._changed:
            self._connections.add(connection)
            if self._stopping:  # accepted as stop() ran: end it too
                _shut_down(connection)

    def _untrack(self, connection: socket.socket) -> None:
        with self._changed:
            self._connections.discard(connection)

    # -- sampling -------------------------------------------------------

    def _sample_forever(self) -> None:
        """Sample the broker every ``interval`` seconds until stop()."""
        while True:
            self._sample_once()
            with self._changed:
                if self._changed.wait_for(
                    lambda: self._stopping, self.interval
                ):
                    return

    def _sample_once(self) -> None:
        """One broker sample, published as an event; a failed one marks
        the broker unreachable."""
        # Held until the sample is published, so seq follows the
        # order in which the broker answered.
        with self._rpc_lock:
            try:
                snapshot = self.source.sample()
            except Exception as exc:  # broker gone: degrade, never die
                with self._changed:
                    lost = self._broker_ok
                    self._broker_ok = False
                    self._failures += 1
                    if lost:
                        self._publish(
                            "status", {"broker": "unreachable"}, None
                        )
                if lost:
                    log.info(
                        "obs server: %s unreachable (%r); serving stale data",
                        self.source.describe(),
                        exc,
                    )
                return
            with self._changed:
                self._samples += 1
                snapshot["seq"] = self._samples
                payload = dict(
                    snapshot,
                    stale=False,
                    delta=counter_deltas(self._latest, snapshot),
                )
                self._latest = snapshot
                self._sampled_at = time.monotonic()
                self._broker_ok = True
                self._publish("snapshot", payload, self._samples)

    def _publish(
        self, event: str, data: Dict[str, Any], seq: Optional[int]
    ) -> None:
        """Log one event and wake every stream (holding ``_changed``)."""
        self._published += 1
        self._events.append((self._published, event, data, seq))
        self._changed.notify_all()

    def _current(self) -> Tuple[Optional[Dict[str, Any]], bool, float]:
        """``(snapshot, stale, age_seconds)`` of the served view."""
        with self._changed:
            snapshot = self._latest
            sampled_at = self._sampled_at
            broker_ok = self._broker_ok
        if snapshot is None or sampled_at is None:
            return None, True, float("inf")
        age = time.monotonic() - sampled_at
        stale = (not broker_ok) or age > self.stale_after
        return snapshot, stale, age

    # -- endpoints ------------------------------------------------------

    def _route(self, handler: _Handler) -> None:
        parts = urlsplit(handler.path)
        if parts.path == "/":
            handler.respond(
                200,
                "text/html; charset=utf-8",
                DASHBOARD_HTML.encode("utf-8"),
            )
        elif parts.path == "/healthz":
            self._serve_healthz(handler)
        elif parts.path == "/snapshot":
            self._serve_snapshot(handler)
        elif parts.path == "/metrics":
            self._serve_metrics(handler)
        elif parts.path == "/events":
            self._serve_events(handler, parts.query)
        else:
            handler.respond(
                404,
                "text/plain; charset=utf-8",
                b"unknown path; try /, /healthz, /snapshot, /metrics, "
                b"/events\n",
            )

    def _serve_healthz(self, handler: _Handler) -> None:
        with self._changed:
            snapshot, stale, age = self._current()
            body = {
                "status": "ok" if (snapshot and not stale) else "stale",
                "broker": "ok" if self._broker_ok else "unreachable",
                "source": self.source.describe(),
                "age_seconds": None if snapshot is None else age,
                "samples": self._samples,
                "failures": self._failures,
            }
        handler.respond(
            200 if body["status"] == "ok" else 503,
            "application/json",
            (json.dumps(body) + "\n").encode("utf-8"),
        )

    def _serve_snapshot(self, handler: _Handler) -> None:
        self._sample_once()  # serve this instant when reachable
        snapshot, stale, age = self._current()
        if snapshot is None:
            handler.respond(
                503,
                "application/json",
                b'{"error": "no snapshot sampled yet"}\n',
            )
            return
        payload = dict(snapshot)
        payload["stale"] = stale
        payload["age_seconds"] = age
        handler.respond(
            200,
            "application/json",
            (json.dumps(payload) + "\n").encode("utf-8"),
        )

    def _serve_metrics(self, handler: _Handler) -> None:
        self._sample_once()  # a scrape reads this instant's truth
        snapshot, stale, age = self._current()
        if snapshot is None:
            handler.respond(
                503,
                "text/plain; charset=utf-8",
                b"# no snapshot sampled yet\n",
            )
            return
        text = render_prometheus(snapshot, stale=stale, age_seconds=age)
        handler.respond(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

    def _serve_events(self, handler: _Handler, query: str) -> None:
        """The SSE stream: backfill, then live events until stop().

        A ``Last-Event-ID`` header wins over ``?since=``: a browser's
        EventSource reconnects to the URL it first opened (the
        dashboard's ``?since=0``) and names the last event it saw in
        that header, so it must resume there, not replay the backfill.
        """
        raw = handler.headers.get("Last-Event-ID")
        if raw is None:
            raw = parse_qs(query).get("since", [None])[0]
        try:
            since = None if raw is None else int(raw)
        except ValueError:
            since = None
        handler.send_response(200)
        handler.send_header("Content-Type", "text/event-stream")
        handler.send_header("Cache-Control", "no-store")
        handler.send_header("Connection", "keep-alive")
        handler.end_headers()
        handler.close_connection = True  # one stream per connection
        with self._changed:
            # The backfill and the live position are read at one
            # instant, so no event is sent twice or skipped.
            pending = [
                (event, dict(data, delta={}), seq)
                for _, event, data, seq in self._events
                if since is not None and event == "snapshot" and seq > since
            ]
            seen = self._published
        while True:
            for event, data, seq in pending:
                handler.wfile.write(_sse_event(event, data, seq))
            with self._changed:
                woken = self._changed.wait_for(
                    lambda: self._stopping or self._published > seen,
                    _KEEPALIVE,
                )
                if self._stopping:
                    return
                pending = [
                    (event, data, seq)
                    for number, event, data, seq in self._events
                    if number > seen
                ]
                seen = self._published
            if not woken:
                handler.wfile.write(b": keepalive\n\n")
