"""Tests for the fleet observatory — HTTP service and exposition.

Three layers:

* the SSE delta computation (``repro.obs.server.counter_deltas``, pure
  data, no sockets).
* ``repro.obs.promexport`` — the Prometheus text exposition and its
  strict conformance parser; the round-trip tests assert the scraped
  counter totals equal ``obs_snapshot()``'s for the same instant.
* ``repro.obs.server`` — the real threaded HTTP service, exercised over
  actual sockets in both modes: in-process (``LocalBrokerSource``)
  against a populated broker, and standalone (``RemoteBrokerSource``)
  against a broker that is then stopped, asserting the service
  degrades to stale data instead of dying, and that its event stream
  carries on across a broker restart.  The SSE test runs a real
  two-worker fleet, SIGKILLs a worker mid-stream, and asserts the
  fleet counter totals reported by the event stream never shrink.
"""

import ast
import gc
import http.client
import json
import multiprocessing
import os
import re
import signal
import socket
import threading
import time
import warnings

import pytest

import repro
from repro.dist import Broker, BrokerServer, DistExecutor, worker_loop
from repro.errors import ReproError
from repro.obs.dashboard import DASHBOARD_HTML
from repro.obs.promexport import (
    PromFormatError,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.server import (
    LocalBrokerSource,
    ObsServer,
    RemoteBrokerSource,
    counter_deltas,
)
from repro.retry import RetryPolicy

#: Short lease so the reap after a SIGKILL happens in seconds (workers
#: beat every lease/4, so a loaded CI box never reaps a live worker).
LEASE_TIMEOUT = 2.0

_FORK = multiprocessing.get_context("fork")

_FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02)


def _slow_double(x):
    time.sleep(0.05)
    return 2 * x


def _start_worker(address, **kwargs):
    process = _FORK.Process(
        target=worker_loop, args=(address,), kwargs=kwargs, daemon=True
    )
    process.start()
    return process


def _populate(broker):
    """Drive a broker through enough protocol to light every section."""
    broker.submit("batch-1", ["p0", "p1", "p2"])
    # Unobserved jobs lease alone; a second lease of w1's would hand
    # back its first, so w2 takes the second job.
    granted = broker.lease_jobs("w1") + broker.lease_jobs("w2")
    broker.complete_many(
        "w1", [(job_id, payload.upper(), 0.2) for job_id, payload in granted]
    )
    broker.heartbeat(
        "w1",
        metrics={
            "counters": {
                "worker.jobs": 2,
                "cachetier.hits": 1,
                "cachetier.misses": 1,
                "scenario.replications.erlang": 8,
                "scenario.blocks.erlang": 2,
            },
            "gauges": {"worker.outbox": 0},
        },
    )
    broker.heartbeat(
        "w2",
        metrics={
            "counters": {"worker.jobs": 3, "scenario.replications.erlang": 4},
            "gauges": {},
        },
    )
    broker.cache_put("key-a", b"blob")
    broker.cache_get("key-a")
    broker.cache_get("missing")
    return broker


def _get(address, path, method="GET"):
    """One HTTP request; returns ``(status, headers, body_bytes)``."""
    connection = http.client.HTTPConnection(address[0], address[1], timeout=10)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            response.read(),
        )
    finally:
        connection.close()


def _read_sse_events(sock_file, count, deadline, stop=None):
    """Parse up to ``count`` SSE events (id/event/data) from a stream.

    ``stop(event)`` may end the read early once a condition is met —
    the kill test reads until it has *seen* the reap, not a fixed N.
    """
    events = []
    current = {"id": None, "event": "message", "data": ""}
    while len(events) < count and time.monotonic() < deadline:
        line = sock_file.readline()
        if not line:
            break
        line = line.decode("utf-8").rstrip("\n")
        if line.startswith(":"):
            continue  # keepalive comment
        if not line:
            if current["data"]:
                current["data"] = json.loads(current["data"])
                events.append(current)
                if stop is not None and stop(current):
                    break
            current = {"id": None, "event": "message", "data": ""}
            continue
        key, _, value = line.partition(":")
        value = value.lstrip(" ")
        if key == "id":
            current["id"] = int(value)
        elif key == "event":
            current["event"] = value
        elif key == "data":
            current["data"] += value
    return events


def _open_sse(address, path, headers=()):
    """Open ``/events`` raw (http.client buffers SSE unhelpfully).

    ``headers`` are extra ``(name, value)`` request headers.
    """
    sock = socket.create_connection(address, timeout=10)
    request = (
        "GET %s HTTP/1.1\r\nHost: %s:%d\r\nAccept: text/event-stream\r\n"
        % (path, address[0], address[1])
        + "".join("%s: %s\r\n" % header for header in headers)
        + "\r\n"
    )
    sock.sendall(request.encode("latin-1"))
    sock_file = sock.makefile("rb")
    status_line = sock_file.readline().decode("latin-1")
    assert " 200 " in status_line, status_line
    while sock_file.readline() not in (b"\r\n", b"\n", b""):
        pass  # drain response headers
    return sock, sock_file


# ----------------------------------------------------------------------
# The SSE delta computation.


class TestCounterDeltas:
    def test_positive_movement_across_sections(self):
        previous = {
            "queue": {"completed": 5, "pending": 9},
            "cache": {"gets": 1},
            "fleet": {"counters": {"worker.jobs": 10}},
        }
        current = {
            "queue": {"completed": 8, "pending": 2},
            "cache": {"gets": 4},
            "fleet": {"counters": {"worker.jobs": 12, "new.counter": 1}},
        }
        deltas = counter_deltas(previous, current)
        assert deltas["queue.completed"] == 3
        assert deltas["cache.gets"] == 3
        assert deltas["fleet.counters.worker.jobs"] == 2
        assert deltas["fleet.counters.new.counter"] == 1
        # pending shrank: a level going down is not a delta.
        assert "queue.pending" not in deltas

    def test_none_previous_counts_everything_positive(self):
        deltas = counter_deltas(None, {"queue": {"completed": 7, "idle": 0}})
        assert deltas == {"queue.completed": 7}

    def test_non_numeric_and_bool_leaves_are_skipped(self):
        deltas = counter_deltas(
            {"queue": {}},
            {"queue": {"completed": 2, "address": "host:1", "alive": True}},
        )
        assert deltas == {"queue.completed": 2}


# ----------------------------------------------------------------------
# Prometheus exposition: render → strict parse → totals round-trip.


class TestPromRoundTrip:
    def test_counter_totals_equal_obs_snapshot(self):
        broker = _populate(Broker(lease_timeout=LEASE_TIMEOUT))
        snapshot = broker.obs_snapshot()
        families = parse_prometheus(render_prometheus(snapshot))

        def only(family, **labels):
            matches = [
                value
                for _, sample_labels, value in families[family]["samples"]
                if all(sample_labels.get(k) == v for k, v in labels.items())
            ]
            assert len(matches) == 1, (family, labels, matches)
            return matches[0]

        assert families["repro_queue_completed_total"]["type"] == "counter"
        assert (
            only("repro_queue_completed_total")
            == snapshot["queue"]["completed"]
        )
        assert only("repro_queue_pending") == snapshot["queue"]["pending"]
        for key in ("gets", "hits", "puts", "evictions"):
            assert (
                only("repro_cache_%s_total" % key) == snapshot["cache"][key]
            )
        # Per-worker totals carry the counter name in a label.
        assert only(
            "repro_worker_counter_total", worker="w1", counter="worker.jobs"
        ) == 2
        assert only("repro_worker_alive", worker="w1") == 1
        # Fleet sums: w1's 2 + w2's 3.
        assert only("repro_fleet_counter_total", counter="worker.jobs") == 5
        for name, value in snapshot["fleet"]["counters"].items():
            if name.startswith("scenario."):
                continue
            assert only("repro_fleet_counter_total", counter=name) == value

    def test_scenario_counters_split_with_scenario_label(self):
        broker = _populate(Broker(lease_timeout=LEASE_TIMEOUT))
        families = parse_prometheus(render_prometheus(broker.obs_snapshot()))
        replications = families["repro_fleet_scenario_replications_total"]
        assert replications["type"] == "counter"
        assert replications["samples"] == [
            ("repro_fleet_scenario_replications_total", {"scenario": "erlang"}, 12.0)
        ]
        blocks = families["repro_fleet_scenario_blocks_total"]
        assert blocks["samples"][0][1] == {"scenario": "erlang"}
        # The raw prefixed names must not leak into the plain family.
        plain = families["repro_fleet_counter_total"]["samples"]
        assert not any(
            labels["counter"].startswith("scenario.") for _, labels, _ in plain
        )

    def test_runtime_histogram_exposed_as_summary(self):
        broker = _populate(Broker(lease_timeout=LEASE_TIMEOUT))
        snapshot = broker.obs_snapshot()
        families = parse_prometheus(render_prometheus(snapshot))
        summary = families["repro_broker_job_runtime_seconds"]
        assert summary["type"] == "summary"
        by_name = {}
        for sample_name, labels, value in summary["samples"]:
            by_name.setdefault(sample_name, []).append((labels, value))
        quantiles = dict(
            (labels["quantile"], value)
            for labels, value in by_name["repro_broker_job_runtime_seconds"]
        )
        assert set(quantiles) == {"0.50", "0.95", "0.99"}
        assert quantiles["0.50"] == pytest.approx(0.2, rel=0.1)
        assert by_name["repro_broker_job_runtime_seconds_count"][0][1] == 2
        assert by_name["repro_broker_job_runtime_seconds_sum"][0][1] == (
            pytest.approx(0.4)
        )

    def test_stale_flags(self):
        broker = _populate(Broker(lease_timeout=LEASE_TIMEOUT))
        snapshot = broker.obs_snapshot()
        fresh = parse_prometheus(render_prometheus(snapshot, stale=False))
        assert fresh["repro_scrape_stale"]["samples"][0][2] == 0
        assert "repro_scrape_age_seconds" not in fresh
        stale = parse_prometheus(
            render_prometheus(snapshot, stale=True, age_seconds=12.5)
        )
        assert stale["repro_scrape_stale"]["samples"][0][2] == 1
        assert stale["repro_scrape_age_seconds"]["samples"][0][2] == 12.5

    def test_label_escaping_round_trips(self):
        broker = Broker(lease_timeout=LEASE_TIMEOUT)
        weird = 'wo"rk\\er\nid'
        broker.heartbeat(weird, metrics={"counters": {"worker.jobs": 1}})
        families = parse_prometheus(render_prometheus(broker.obs_snapshot()))
        alive = families["repro_worker_alive"]["samples"]
        assert [labels["worker"] for _, labels, _ in alive] == [weird]


class TestPromParserStrictness:
    @pytest.mark.parametrize(
        "text",
        [
            "# TYPE bad-name counter\n",
            "# TYPE x bogus\n",
            "# TYPE x\n",
            "x 1\n# TYPE x counter\n",
            "# TYPE x counter\n# TYPE x counter\n",
            "# HELP x a\n# HELP x b\n",
            'x{l="1"} 1\nx{l="1"} 2\n',
            'x{9bad="v"} 1\n',
            'x{l="\\q"} 1\n',
            'x{l="unterminated\n',
            'x{l="v" 1\n',
            "x notanumber\n",
            "x 1 notatimestamp\n",
            "x 1 2 3\n",
            "{} 1\n",
        ],
    )
    def test_rejects_malformed_bodies(self, text):
        with pytest.raises(PromFormatError):
            parse_prometheus(text)

    def test_accepts_the_corners_of_the_format(self):
        families = parse_prometheus(
            "# a plain comment\n"
            "# HELP up Is it up.\n"
            "# TYPE up gauge\n"
            "up 1 1700000000000\n"
            "untyped_sample 3.5\n"
            'edge{l="a\\\\b\\"c\\nd"} +Inf\n'
            "nan_sample NaN\n"
        )
        assert families["up"]["type"] == "gauge"
        assert families["untyped_sample"]["type"] == "untyped"
        (_, labels, value) = families["edge"]["samples"][0]
        assert labels == {"l": 'a\\b"c\nd'}
        assert value == float("inf")

    def test_summary_children_fold_into_their_family(self):
        families = parse_prometheus(
            "# TYPE lat summary\n"
            'lat{quantile="0.5"} 1\n'
            "lat_sum 2\n"
            "lat_count 3\n"
        )
        assert set(families) == {"lat"}
        assert len(families["lat"]["samples"]) == 3


# ----------------------------------------------------------------------
# The HTTP service, in-process mode, over real sockets.


@pytest.fixture()
def obs_http():
    broker = _populate(Broker(lease_timeout=LEASE_TIMEOUT))
    server = ObsServer(
        LocalBrokerSource(broker), port=0, interval=0.1
    ).start_in_thread()
    yield broker, server
    server.stop()


class TestObsServerEndpoints:
    def test_healthz_reports_ok(self, obs_http):
        _broker, server = obs_http
        # The first probe can race the very first sampler tick.
        deadline = time.monotonic() + 10
        while True:
            status, _headers, body = _get(server.address, "/healthz")
            if status == 200 or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert status == 200, body
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["broker"] == "ok"
        assert health["source"] == "in-process broker"
        assert health["samples"] >= 1

    def test_snapshot_serves_the_full_fleet_json(self, obs_http):
        broker, server = obs_http
        status, headers, body = _get(server.address, "/snapshot")
        assert status == 200
        assert headers["content-type"] == "application/json"
        snapshot = json.loads(body)
        assert snapshot["stale"] is False
        assert snapshot["seq"] >= 1
        assert snapshot["queue"]["completed"] == 2
        assert set(snapshot["workers"]) == {"w1", "w2"}
        assert snapshot["age_seconds"] < 5.0

    def test_metrics_scrape_matches_obs_snapshot_exactly(self, obs_http):
        broker, server = obs_http
        status, headers, body = _get(server.address, "/metrics")
        assert status == 200
        assert headers["content-type"].startswith(
            "text/plain; version=0.0.4"
        )
        families = parse_prometheus(body.decode("utf-8"))
        # The scrape samples the broker at request time, and the broker
        # is idle here — so the scraped totals must equal the
        # snapshot's, not approximate them.
        snapshot = broker.obs_snapshot()
        completed = families["repro_queue_completed_total"]["samples"][0][2]
        assert completed == snapshot["queue"]["completed"]
        stale = families["repro_scrape_stale"]["samples"][0][2]
        assert stale == 0

    def test_dashboard_smoke(self, obs_http):
        _broker, server = obs_http
        status, headers, body = _get(server.address, "/")
        assert status == 200
        assert headers["content-type"] == "text/html; charset=utf-8"
        page = body.decode("utf-8")
        assert "<!doctype html>" in page.lower()
        assert "repro fleet" in page
        assert "EventSource" in page
        assert "<canvas" in page or "canvas" in page

    def test_dashboard_reads_only_counters_the_program_creates(self):
        # A name the dashboard reads but nothing increments shows 0
        # forever: every counters["..."] in its script must be a counter
        # some module creates with a literal name.
        read = set(re.findall(r'counters\["([^"]+)"\]', DASHBOARD_HTML))
        assert read
        src = os.path.dirname(os.path.abspath(repro.__file__))
        created = set()
        for folder, _dirs, files in os.walk(src):
            for name in files:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(folder, name)) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == "counter"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                    ):
                        created.add(node.args[0].value)
        assert read <= created, sorted(read - created)

    def test_unknown_path_is_404_and_post_is_405(self, obs_http):
        _broker, server = obs_http
        status, _headers, _body = _get(server.address, "/nope")
        assert status == 404
        status, _headers, _body = _get(server.address, "/snapshot", "POST")
        assert status == 405

    def test_events_backfills_the_ring_then_streams_live(self, obs_http):
        _broker, server = obs_http
        # Each /snapshot request is one sample, so ?since=0 has a tail
        # to replay.
        first = json.loads(_get(server.address, "/snapshot")[2])["seq"]
        second = json.loads(_get(server.address, "/snapshot")[2])["seq"]
        sock, sock_file = _open_sse(server.address, "/events?since=0")
        try:
            sock.settimeout(10)
            # The whole backfill (ids 1..second at least), then live.
            events = _read_sse_events(
                sock_file, count=second + 2, deadline=time.monotonic() + 10
            )
        finally:
            sock.close()
        assert len(events) == second + 2
        assert all(e["event"] == "snapshot" for e in events)
        seqs = [e["id"] for e in events]
        assert seqs[0] == 1
        assert first in seqs and second in seqs
        # Strictly increasing: the live tail never re-delivers what the
        # backfill already sent.
        assert seqs == sorted(set(seqs))
        assert all("queue" in e["data"] for e in events)

    def test_last_event_id_wins_over_since(self, obs_http):
        _broker, server = obs_http
        for _ in range(6):  # one sample each: ids 1..6 at least
            _get(server.address, "/snapshot")
        # What an EventSource reconnect sends: the URL it first opened,
        # plus the id of the last event it saw.
        sock, sock_file = _open_sse(
            server.address, "/events?since=0", [("Last-Event-ID", "5")]
        )
        try:
            sock.settimeout(10)
            events = _read_sse_events(
                sock_file, count=1, deadline=time.monotonic() + 10
            )
        finally:
            sock.close()
        assert [e["id"] for e in events] == [6]

    @pytest.mark.parametrize("client", ["hung-up", "streaming", "silent"])
    def test_stop_closes_every_connection(self, client):
        # A connection open at stop() must be closed, and its thread
        # joined, before stop() returns: an /events stream whose client
        # just hung up or still reads, and a client that has sent no
        # request yet (its handler is blocked reading).  A socket left
        # open shows only when it is collected, as a ResourceWarning,
        # so every one raised across stop() is a failure.  Each kind
        # stops a few servers, since whether a handler has started at
        # stop() is a race.
        broker = _populate(Broker(lease_timeout=LEASE_TIMEOUT))
        unclosed = []
        for _ in range(4):
            before = set(threading.enumerate())
            server = ObsServer(
                LocalBrokerSource(broker), port=0, interval=0.05
            ).start_in_thread()
            if client == "silent":
                sock = socket.create_connection(server.address, timeout=10)
                sock_file = sock.makefile("rb")
                # The server accepts connections in order: once a later
                # one is answered, the silent one has its thread.
                assert _get(server.address, "/healthz")[0] == 200
            else:
                sock, sock_file = _open_sse(
                    server.address, "/events?since=0"
                )
                sock.settimeout(10)
                assert _read_sse_events(
                    sock_file, count=1, deadline=time.monotonic() + 10
                )
            try:
                if client == "hung-up":
                    sock_file.close()
                    sock.close()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", ResourceWarning)
                    begin = time.monotonic()
                    server.stop()
                    took = time.monotonic() - begin
                    gc.collect()
                # Every thread the server started has been joined: the
                # accept loop, the sampler and each connection's.
                left = [
                    t.name for t in threading.enumerate() if t not in before
                ]
                if client != "hung-up":
                    sock_file.read()  # what the stream had sent, then
                    assert sock.recv(1) == b""  # end of file
            finally:
                sock_file.close()
                sock.close()
            # Socket shutdown ends every handler; no timer is waited out.
            assert took < 0.5, took
            assert not left, left
            unclosed += [
                str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)
            ]
        assert not unclosed, unclosed

    def test_rejects_a_second_server_on_the_same_port(self, obs_http):
        _broker, server = obs_http
        clash = ObsServer(
            LocalBrokerSource(Broker(lease_timeout=LEASE_TIMEOUT)),
            port=server.address[1],
        )
        with pytest.raises(ReproError, match="failed to start"):
            clash.start_in_thread()

    def test_interval_must_be_positive(self):
        with pytest.raises(ReproError):
            ObsServer(LocalBrokerSource(None), interval=0.0)


# ----------------------------------------------------------------------
# Standalone mode: the service outlives the broker it watches.


class TestStandaloneDegradation:
    def test_broker_loss_degrades_to_stale_not_dead(self):
        broker_server = BrokerServer(
            port=0, lease_timeout=LEASE_TIMEOUT
        ).start_in_thread()
        _populate(broker_server.broker)
        source = RemoteBrokerSource(
            broker_server.address, retry=_FAST_RETRY
        )
        server = ObsServer(source, port=0, interval=0.05).start_in_thread()
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, _headers, body = _get(server.address, "/healthz")
                if status == 200:
                    break
                time.sleep(0.05)
            assert status == 200, body
            health = json.loads(body)
            assert health["broker"] == "ok"
            assert "broker at" in health["source"]

            broker_server.stop()

            # The sampler keeps failing until /healthz concedes; the
            # stale_after ceiling is irrelevant — broker_ok drives it.
            while time.monotonic() < deadline:
                status, _headers, body = _get(server.address, "/healthz")
                if status == 503:
                    break
                time.sleep(0.05)
            assert status == 503, body
            health = json.loads(body)
            assert health["status"] == "stale"
            assert health["broker"] == "unreachable"
            assert health["failures"] >= 1
            # Stale while the last sample is still young: the lost
            # broker, not the sample's age, made it so.
            assert health["age_seconds"] < server.stale_after, health

            # Scrapes still answer 200 from the cached snapshot, marked.
            status, _headers, body = _get(server.address, "/metrics")
            assert status == 200
            families = parse_prometheus(body.decode("utf-8"))
            assert families["repro_scrape_stale"]["samples"][0][2] == 1
            completed = families["repro_queue_completed_total"]["samples"]
            assert completed[0][2] == 2  # the last truth it saw

            status, _headers, body = _get(server.address, "/snapshot")
            assert status == 200
            assert json.loads(body)["stale"] is True
        finally:
            server.stop()

    def test_stream_keeps_flowing_across_a_broker_restart(self):
        interval = 0.05
        first = BrokerServer(
            port=0, lease_timeout=LEASE_TIMEOUT
        ).start_in_thread()
        _populate(first.broker)  # 2 completed; a fresh broker has 0
        address = first.address
        server = ObsServer(
            RemoteBrokerSource(address, retry=_FAST_RETRY),
            port=0,
            interval=interval,
        ).start_in_thread()
        second = None
        sock = None
        try:
            sock, sock_file = _open_sse(server.address, "/events")
            sock.settimeout(10)
            before = _read_sse_events(
                sock_file, count=20, deadline=time.monotonic() + 10
            )
            assert [e["event"] for e in before] == ["snapshot"] * 20
            first.stop()
            second = BrokerServer(
                port=address[1], lease_timeout=LEASE_TIMEOUT
            ).start_in_thread()
            restarted = time.monotonic()

            def _from_new_broker(event):
                return (
                    event["event"] == "snapshot"
                    and event["data"]["queue"]["completed"] == 0
                )

            after = _read_sse_events(
                sock_file,
                count=1000,
                deadline=restarted + 10,
                stop=_from_new_broker,
            )
            waited = time.monotonic() - restarted
            assert after and _from_new_broker(after[-1]), after
            # The sampler reconnects on its next tick; nothing may hold
            # the new broker's samples back.
            assert waited < 10 * interval, waited
            ids = [
                e["id"] for e in before + after if e["event"] == "snapshot"
            ]
            assert ids == sorted(set(ids))
        finally:
            if sock is not None:
                sock.close()
            server.stop()
            first.stop()
            if second is not None:
                second.stop()

    def test_no_snapshot_yet_is_503_everywhere(self):
        # A broker that never answers: nothing sampled, nothing cached.
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        try:
            source = RemoteBrokerSource(
                dead.getsockname(), retry=_FAST_RETRY
            )
            server = ObsServer(source, port=0, interval=0.05)
            server.start_in_thread()
            try:
                status, _headers, _body = _get(server.address, "/healthz")
                assert status == 503
                status, _headers, _body = _get(server.address, "/snapshot")
                assert status == 503
                status, _headers, _body = _get(server.address, "/metrics")
                assert status == 503
            finally:
                server.stop()
        finally:
            dead.close()


# ----------------------------------------------------------------------
# SSE under fire: kill a worker mid-stream, totals must never shrink.


class TestSSEUnderWorkerDeath:
    def test_fleet_counter_totals_never_shrink_across_a_kill(self):
        broker_server = BrokerServer(
            port=0, lease_timeout=LEASE_TIMEOUT
        ).start_in_thread()
        server = ObsServer(
            LocalBrokerSource(broker_server.broker), port=0, interval=0.1
        ).start_in_thread()
        workers = [_start_worker(broker_server.address) for _ in range(2)]
        executor = DistExecutor(broker_server.address, timeout=60)
        sock = None
        map_result = {}

        def _run_map():
            map_result["results"] = executor.map(
                _slow_double, list(range(40))
            )

        mapper = threading.Thread(target=_run_map, daemon=True)
        try:
            sock, sock_file = _open_sse(server.address, "/events?since=0")
            sock.settimeout(30)
            mapper.start()

            # Let the fleet make visible progress, then kill one worker
            # mid-job — its leased jobs are reaped and re-run, but its
            # shipped counters must survive as a dead worker's totals.
            deadline = time.monotonic() + 60
            warmup = _read_sse_events(
                sock_file,
                count=1000,
                deadline=deadline,
                stop=lambda e: (
                    e["data"].get("fleet", {})
                    .get("counters", {})
                    .get("worker.jobs", 0)
                    > 0
                ),
            )
            assert warmup, "fleet never reported progress over SSE"
            os.kill(workers[0].pid, signal.SIGKILL)

            # Keep reading until a snapshot shows the dead worker
            # reaped (alive: False) — the moment totals could shrink
            # if the broker dropped its metrics with its lease.
            def _saw_reap(event):
                info = event["data"].get("workers", {})
                return any(not w.get("alive", True) for w in info.values())

            tail = _read_sse_events(
                sock_file, count=1000, deadline=deadline, stop=_saw_reap
            )
            assert tail and _saw_reap(tail[-1]), "reap never surfaced"

            events = warmup + tail
            seqs = [e["id"] for e in events]
            assert seqs == sorted(set(seqs))
            totals = [
                e["data"]["fleet"]["counters"].get("worker.jobs", 0)
                for e in events
            ]
            assert totals == sorted(totals), (
                "fleet worker.jobs went backwards: %r" % (totals,)
            )
            # And the per-event deltas agree: summing them can never
            # exceed the final total (deltas report only increases).
            delta_sum = sum(
                e["data"].get("delta", {}).get(
                    "fleet.counters.worker.jobs", 0
                )
                for e in events
            )
            assert delta_sum <= totals[-1]

            mapper.join(timeout=60)
            assert not mapper.is_alive(), "fleet map did not finish"
            assert map_result["results"] == [2 * x for x in range(40)]
        finally:
            if sock is not None:
                sock.close()
            server.stop()
            for process in workers:
                process.terminate()
            for process in workers:
                process.join(timeout=10)
            broker_server.stop()
