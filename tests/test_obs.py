"""Tests for repro.obs — metrics, tracing, logging, and fleet telemetry.

Pins the three load-bearing contracts of the observability layer:

* **Disabled is free** — every accessor returns a shared no-op
  singleton, and the batched sim drain loop allocates *nothing* inside
  ``repro/obs`` with observability off (asserted with tracemalloc).
* **Never load-bearing** — replication results are bitwise-identical
  with tracing + metrics enabled vs. a cold obs-off reference.
* **Fleet aggregation survives worker death** — a reaped worker's
  shipped counter totals stay in the broker's fleet view (marked
  ``alive: False``), so fleet sums never shrink when a worker dies.
"""

import io
import json
import os
import tracemalloc

import pytest

from repro import obs
from repro.cli import main
from repro.dist.jobs import echo
from repro.dist.queue import Broker, JobPayload
from repro.dist.worker import _MetricsShipper
from repro.obs import log
from repro.obs.console import render_top
from repro.obs.metrics import (
    MetricsRegistry,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
)
from repro.obs.trace import FlightRecorder, NOOP_SPAN
from repro.scenarios import get as get_scenario
from repro.sim.runner import _simulate_seed, replicate


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability fully disabled."""
    obs.reset()
    yield
    obs.reset()


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- metrics ------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5
        hist = registry.histogram("h")
        for v in (3.0, 1.0, 2.0):
            hist.observe(v)
        assert (hist.count, hist.sum, hist.min, hist.max) == (3, 6.0, 1.0, 3.0)
        assert hist.mean() == 2.0

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry(enabled=True)
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x") is not registry.counter("y")

    def test_disabled_registry_hands_out_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NOOP_COUNTER
        assert registry.gauge("a") is NOOP_GAUGE
        assert registry.histogram("a") is NOOP_HISTOGRAM
        # The stubs swallow updates and the registry records nothing.
        registry.counter("a").inc()
        registry.histogram("a").observe(1.0)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_snapshot_shapes(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(7.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"] == {
            "count": 1, "sum": 7.0, "min": 7.0, "max": 7.0,
            "p50": 7.0, "p95": 7.0, "p99": 7.0,
        }
        assert registry.counters_snapshot() == {"c": 2}
        assert registry.gauges_snapshot() == {"g": 1.0}

    def test_histogram_quantiles_log_buckets(self):
        hist = MetricsRegistry(enabled=True).histogram("h")
        for value in range(1, 1001):  # 1..1000, uniform
            hist.observe(float(value))
        # Log buckets are ~19% wide, so estimates land within ~10%.
        assert hist.quantile(0.5) == pytest.approx(500.0, rel=0.11)
        assert hist.quantile(0.95) == pytest.approx(950.0, rel=0.11)
        assert hist.quantile(0.99) == pytest.approx(990.0, rel=0.11)
        # Extremes are clamped to the exact observed range.
        assert hist.quantile(0.0) >= hist.min
        assert hist.quantile(1.0) <= hist.max

    def test_histogram_quantiles_edge_cases(self):
        registry = MetricsRegistry(enabled=True)
        empty = registry.histogram("empty")
        assert empty.quantile(0.5) == 0.0
        zeros = registry.histogram("zeros")
        for value in (0.0, 0.0, 5.0):
            zeros.observe(value)
        # Two thirds of the mass sits at <= 0: p50 reports it honestly.
        assert zeros.quantile(0.5) == 0.0
        assert zeros.quantile(0.99) == 5.0
        wide = registry.histogram("wide")
        for value in (1e-9, 1.0, 1e6):
            wide.observe(value)
        assert wide.quantile(0.01) == pytest.approx(1e-9, rel=0.2)
        assert wide.quantile(0.99) == pytest.approx(1e6, rel=0.2)

    def test_module_level_enable_disable(self):
        assert not obs.metrics_enabled()
        assert obs.counter("m") is NOOP_COUNTER
        obs.enable_metrics()
        assert obs.metrics_enabled()
        obs.counter("m").inc(3)
        assert obs.registry().counters_snapshot() == {"m": 3}
        # Idempotent: re-enabling keeps the live registry.
        registry = obs.registry()
        obs.enable_metrics()
        assert obs.registry() is registry
        obs.disable_metrics()
        assert obs.counter("m") is NOOP_COUNTER


# -- tracing ------------------------------------------------------------


class TestTracing:
    def test_disabled_span_is_the_shared_singleton(self):
        assert obs.span("anything") is NOOP_SPAN
        with obs.span("anything") as span:
            span.set("k", "v")  # accepted, does nothing

    def test_spans_record_name_duration_and_args(self):
        obs.enable_tracing()
        with obs.span("solver.lp_solve", scenario="amba") as span:
            span.set("iteration", 2)
        (name, start_ns, dur_ns, args), = obs.recorder().spans()
        assert name == "solver.lp_solve"
        assert dur_ns >= 0 and start_ns > 0
        assert args == {"scenario": "amba", "iteration": 2}

    def test_recorder_is_bounded_and_counts_drops(self):
        recorder = FlightRecorder(capacity=10)
        for i in range(25):
            recorder.record("s", i, 1, None)
        assert len(recorder) == 10
        assert recorder.recorded == 25
        assert recorder.dropped() == 15
        # The ring keeps the most recent spans.
        assert recorder.spans()[0][1] == 15

    def test_chrome_export_schema(self, tmp_path):
        obs.enable_tracing()
        with obs.span("cache.lookup") as span:
            span.set("hit", False)
        with obs.span("sim.window"):
            pass
        path = tmp_path / "trace.json"
        assert obs.export_trace(str(path)) == 2
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"recorded": 2, "dropped": 0}
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["cache.lookup", "sim.window"]
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == event["name"].split(".", 1)[0]
            assert isinstance(event["ts"], float) and event["ts"] >= 0
            assert isinstance(event["dur"], float) and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        assert events[0]["args"] == {"hit": False}

    def test_export_without_tracing_is_an_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            obs.export_trace(str(tmp_path / "t.json"))

    def test_install_from_env(self):
        obs.install_from_env({"REPRO_OBS_METRICS": "1"})
        assert obs.metrics_enabled() and not obs.tracing_enabled()
        obs.reset()
        obs.install_from_env({"REPRO_OBS_TRACE": "5000"})
        assert obs.tracing_enabled()
        assert obs.recorder().capacity == 5000
        obs.reset()
        obs.install_from_env({"REPRO_OBS_METRICS": "0", "REPRO_OBS_TRACE": ""})
        assert not obs.enabled()

    def test_snapshot_includes_tracing_state(self):
        snap = obs.snapshot()
        assert snap["tracing"] == {
            "enabled": False, "recorded": 0, "dropped": 0
        }
        obs.enable_tracing()
        with obs.span("x"):
            pass
        assert obs.snapshot()["tracing"]["recorded"] == 1


# -- logging ------------------------------------------------------------


class TestLog:
    def test_levels_gate_output(self):
        stream = io.StringIO()
        log.set_stream(stream)
        log.set_level(log.INFO)
        log.info("visible")
        log.detail("hidden")
        log.set_level(log.QUIET)
        log.info("also hidden")
        log.set_level(log.DETAIL)
        log.detail("now visible")
        assert stream.getvalue() == "visible\nnow visible\n"

    def test_warn_always_prints_with_prefix(self):
        stream = io.StringIO()
        log.set_stream(stream)
        log.set_level(log.QUIET)
        log.warn("broken")
        assert stream.getvalue() == "warning: broken\n"

    def test_default_stream_is_live_stderr(self, capsys):
        log.info("to stderr")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "to stderr" in captured.err


# -- the zero-cost contract ---------------------------------------------


class TestDisabledIsFree:
    def test_sim_drain_loop_allocates_nothing_in_obs(self):
        """With obs off the batched drain loop never enters obs code.

        tracemalloc attributes every allocation to the file that made
        it; filtering to ``src/repro/obs/*`` must find zero bytes for a
        whole simulation window (warmup + measure), or an instrument
        crept inside the per-event loop.
        """
        spec = get_scenario("single-bus-4")
        topology = spec.topology()
        capacities = {p: 8 for p in topology.processors}
        run = lambda: _simulate_seed(
            topology, capacities, duration=300.0, seed=3,
            warmup=50.0, lane="batched",
        )
        run()  # warm lazy imports and caches outside the measurement
        obs_dir = os.path.dirname(obs.__file__)
        filters = [
            tracemalloc.Filter(True, os.path.join(obs_dir, "*")),
            tracemalloc.Filter(True, obs.__file__),
        ]
        tracemalloc.start()
        try:
            run()
            snapshot = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        stats = snapshot.statistics("lineno")
        assert not stats, [str(s) for s in stats]


# -- observation is never load-bearing ----------------------------------


class TestNeverLoadBearing:
    def test_replication_identical_with_tracing_and_metrics_on(
        self, monkeypatch
    ):
        # The counted fallback: each seed runs the batched drain loop.
        monkeypatch.setenv("REPRO_SIM_CC", "0")
        spec = get_scenario("single-bus-4")
        topology = spec.topology()
        capacities = {p: 8 for p in topology.processors}
        kwargs = dict(replications=2, duration=200.0)
        reference = replicate(topology, capacities, **kwargs)
        obs.enable_metrics()
        obs.enable_tracing()
        traced = replicate(topology, capacities, **kwargs)
        for ref, got in zip(reference.results, traced.results):
            assert got.lost == ref.lost
            assert got.offered == ref.offered
            assert got.mean_waiting_time == ref.mean_waiting_time
        # And the instrumentation did fire.
        assert obs.registry().counters_snapshot()["sim.windows"] == 2
        assert obs.recorder().recorded > 0


# -- fleet aggregation --------------------------------------------------


def _envelope(counters, gauges=None):
    return {"counters": counters, "gauges": gauges or {}}


class TestBrokerAggregation:
    def test_stats_keys_unchanged(self):
        broker = Broker(lease_timeout=10.0)
        assert set(broker.stats()) == {
            "workers", "pending", "leased", "batches", "completed",
            "steals", "reaped_jobs", "dropped_batches",
            "lease_grants", "lease_jobs",
            "pinned_leases", "batched_uploads", "batched_jobs",
        }
        assert set(broker.cache_stats()) == {
            "entries", "bytes", "gets", "hits", "puts", "evictions",
        }

    def test_heartbeat_and_complete_merge_deltas(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, 0)])
        (job_id, payload), = broker.lease_jobs("w1")["jobs"]
        broker.heartbeat(
            "w1", _envelope({"worker.jobs": 1}, {"rss_mb": 10.0})
        )
        broker.start("w1", job_id)
        broker.complete_many(
            "w1", [(job_id, payload.fn(payload.item), None)],
            _envelope({"worker.jobs": 2, "sim.windows": 5}, {"rss_mb": 12.0}),
        )
        snap = broker.obs_snapshot()
        record = snap["workers"]["w1"]
        assert record["alive"] is True
        # Counters accumulate across ships; gauges take the last value.
        assert record["counters"] == {"worker.jobs": 3, "sim.windows": 5}
        assert record["gauges"] == {"rss_mb": 12.0}
        assert snap["fleet"]["counters"] == {
            "worker.jobs": 3, "sim.windows": 5
        }

    def test_reaped_worker_totals_survive_in_fleet_view(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=1.0, clock=clock)
        broker.submit("b", [JobPayload(echo, i) for i in range(2)])
        broker.lease_jobs("w1")
        broker.heartbeat("w1", _envelope({"worker.jobs": 3}))
        clock.advance(1.5)  # w1 presumed dead
        broker.lease_jobs("w2")  # triggers the reap
        broker.heartbeat("w2", _envelope({"worker.jobs": 2}))
        snap = broker.obs_snapshot()
        assert snap["workers"]["w1"]["alive"] is False
        assert snap["workers"]["w1"]["counters"] == {"worker.jobs": 3}
        assert snap["workers"]["w2"]["alive"] is True
        # Fleet totals keep the dead worker's contribution.
        assert snap["fleet"]["counters"] == {"worker.jobs": 5}
        assert snap["queue"]["reaped_jobs"] == 1

    def test_heartbeat_resurrects_alive_flag(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=1.0, clock=clock)
        broker.submit("b", [JobPayload(echo, 0)])
        broker.lease_jobs("w1")
        broker.heartbeat("w1", _envelope({"worker.jobs": 1}))
        clock.advance(1.5)
        broker.lease_jobs("w2")  # reaps w1
        assert broker.obs_snapshot()["workers"]["w1"]["alive"] is False
        # The slow-but-alive worker beats again: marked up, totals kept.
        broker.heartbeat("w1", _envelope({"worker.jobs": 1}))
        record = broker.obs_snapshot()["workers"]["w1"]
        assert record["alive"] is True
        assert record["counters"] == {"worker.jobs": 2}

    def test_obs_snapshot_sections(self):
        broker = Broker(lease_timeout=10.0)
        snap = broker.obs_snapshot()
        assert set(snap) == {
            "queue", "cache", "workers", "fleet", "broker", "scheduler",
            "time",
        }
        assert snap["queue"] == broker.stats()
        assert snap["cache"] == broker.cache_stats()
        assert set(snap["time"]) == {"monotonic", "wall"}

    def test_obs_sample_records_into_history_ring(self):
        broker = Broker(lease_timeout=10.0)
        first = broker.obs_sample()
        second = broker.obs_sample()
        assert (first["seq"], second["seq"]) == (1, 2)
        assert [s["seq"] for s in broker.obs_history()] == [1, 2]
        assert [s["seq"] for s in broker.obs_history(since=1)] == [2]
        assert broker.obs_history(since=2) == []

    def test_completion_runtime_feeds_latency_histogram(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=10.0, clock=clock)
        broker.submit("b", [JobPayload(echo, 0)])
        (job_id, payload), = broker.lease_jobs("w1")["jobs"]
        broker.start("w1", job_id)
        broker.complete_many("w1", [(job_id, 0, 0.25)])
        hist = broker.obs_snapshot()["broker"]["histograms"][
            "broker.job_runtime_seconds"
        ]
        assert hist["count"] == 1
        assert hist["p50"] == pytest.approx(0.25, rel=0.1)


class TestMetricsShipper:
    def test_ships_deltas_exactly_once(self):
        obs.enable_metrics()
        shipper = _MetricsShipper()
        sent = []
        obs.counter("worker.jobs").inc(2)
        shipper.ship(sent.append)
        obs.counter("worker.jobs").inc(1)
        shipper.ship(sent.append)
        shipper.ship(sent.append)  # nothing new
        assert [e and e["counters"] for e in sent] == [
            {"worker.jobs": 2}, {"worker.jobs": 1}, None
        ]

    def test_failed_send_reships_the_same_delta(self):
        obs.enable_metrics()
        shipper = _MetricsShipper()
        obs.counter("worker.jobs").inc(4)

        def broken(envelope):
            raise ConnectionResetError("torn")

        with pytest.raises(ConnectionResetError):
            shipper.ship(broken)
        sent = []
        shipper.ship(sent.append)
        assert sent[0]["counters"] == {"worker.jobs": 4}

    def test_disabled_metrics_ship_nothing(self):
        shipper = _MetricsShipper()
        sent = []
        shipper.ship(sent.append)
        assert sent == [None]


# -- console + CLI ------------------------------------------------------


class TestConsole:
    SNAPSHOT = {
        "queue": {
            "workers": 2, "pending": 1, "leased": 2, "batches": 1,
            "completed": 7, "steals": 1, "reaped_jobs": 0,
            "dropped_batches": 0,
        },
        "cache": {
            "entries": 3, "bytes": 2048, "gets": 10, "hits": 4,
            "puts": 3, "evictions": 0,
        },
        "workers": {
            "w1": {
                "alive": True,
                "counters": {
                    "worker.jobs": 5, "worker.jobs_failed": 1,
                    "cachetier.hits": 3, "cachetier.misses": 1,
                },
                "gauges": {},
            },
            "w2": {
                "alive": False,
                "counters": {"worker.jobs": 2},
                "gauges": {},
            },
        },
        "fleet": {"counters": {"worker.jobs": 7, "faults.injected": 2}},
    }

    STAMPED = dict(
        SNAPSHOT,
        time={"monotonic": 100.0, "wall": 1000.0},
        workers={
            "w1": dict(SNAPSHOT["workers"]["w1"], last_beat=99.5),
            "w2": dict(SNAPSHOT["workers"]["w2"], last_beat=58.0),
        },
        broker={
            "histograms": {
                "broker.job_runtime_seconds": {
                    "count": 12, "sum": 3.0, "min": 0.1, "max": 0.9,
                    "p50": 0.2, "p95": 0.7, "p99": 0.85,
                }
            }
        },
    )

    def test_render_top_is_a_pure_text_frame(self):
        frame = render_top(self.SNAPSHOT)
        assert "workers 2  pending 1  leased 2" in frame
        assert "injected 2" in frame
        assert "2.0KiB" in frame
        assert "hit 40% (4/10)" in frame
        lines = [
            l for l in frame.splitlines()
            if l.startswith("w1") or l.startswith("w2")
        ]
        assert "up" in lines[0] and "gone" in lines[1]
        assert frame.endswith("q: quit   refresh: 0.0s\n")

    def test_render_top_rates_from_previous_frame(self):
        previous = {
            "workers": {
                "w1": {"alive": True, "counters": {"worker.jobs": 1}}
            }
        }
        frame = render_top(self.SNAPSHOT, previous=previous, interval=2.0)
        w1_line = next(
            l for l in frame.splitlines() if l.startswith("w1")
        )
        assert "2.00" in w1_line  # (5 - 1) / 2.0 jobs/s

    def test_render_top_empty_fleet(self):
        frame = render_top({})
        assert "no workers have reported metrics" in frame

    def test_render_top_shows_snapshot_age(self):
        frame = render_top(self.STAMPED, now_wall=1003.5)
        assert "age 3.5s" in frame
        # An unstamped snapshot (older broker) has no age to show.
        assert "age" not in render_top(self.SNAPSHOT).splitlines()[0]

    def test_render_top_marks_dead_workers_stale(self):
        previous = {
            "workers": {
                worker: {"alive": True, "counters": {"worker.jobs": 1}}
                for worker in ("w1", "w2")
            }
        }
        frame = render_top(
            self.STAMPED, previous=previous, interval=2.0, now_wall=1000.0
        )
        w1_line = next(
            l for l in frame.splitlines() if l.startswith("w1")
        )
        w2_line = next(
            l for l in frame.splitlines() if l.startswith("w2")
        )
        # Live worker: rate computed; dead worker: marked gone with its
        # last-beat age (broker clock) and never a live-looking rate.
        assert "2.00" in w1_line
        assert "gone 42.0s" in w2_line
        assert "0.50" not in w2_line  # (2 - 1) / 2.0 must NOT render

    def test_render_top_latency_row_from_histogram(self):
        frame = render_top(self.STAMPED, now_wall=1000.0)
        assert (
            "latency: job runtime p50 200ms  p95 700ms  p99 850ms  "
            "(n=12)" in frame
        )
        assert "latency:" not in render_top(self.SNAPSHOT)

    def test_render_top_transport_row_shows_jobs_per_upload(self):
        snapshot = dict(
            self.SNAPSHOT,
            queue=dict(
                self.SNAPSHOT["queue"], batched_uploads=2, batched_jobs=16
            ),
            scheduler={"cost": {}, "mean_lease_size": 4.0, "pinned_leases": 3},
        )
        frame = render_top(snapshot)
        assert "batched uploads 2  jobs/upload 8.0" in frame
        assert "scheduler: pred-err -  mean-lease 4.0  pinned 3" in frame


class TestCli:
    def test_obs_dump_prints_local_snapshot_json(self, capsys):
        assert main(["obs", "dump"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tracing"]["enabled"] is False
        assert doc["counters"] == {}

    def test_trace_flag_exports_spans(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main([
            "simulate", "--scenario", "single-bus-4", "--budget", "8",
            "--duration", "100", "--reps", "1", "--trace", str(path),
        ]) == 0
        err = capsys.readouterr().err
        assert "# trace: wrote" in err
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "sim.window" in names

    def test_quiet_silences_info_lines(self, tmp_path, capsys):
        out_json = tmp_path / "fleet.json"
        assert main([
            "dist", "run", "--scenario", "single-bus-4", "--budgets", "8",
            "--reps", "1", "--duration", "100", "--json", str(out_json),
            "--quiet",
        ]) == 0
        captured = capsys.readouterr()
        assert "# wrote" not in captured.err
        assert "single-bus-4" in captured.out  # the table still prints
