"""Benchmark for the observability layer's hot-path cost.

``bench_obs_overhead`` measures one instrumented operation — a span
around a trivial body plus a counter increment, the exact shape every
``repro.obs`` call site uses — in three modes: observability off (the
production default; must cost one singleton method call), metrics only,
and metrics + tracing.  ``extra_info.events_per_second`` puts all three
in ``BENCH_quick.json`` so ``diff_bench.py`` trips if the disabled path
ever stops being free or the enabled path gets dramatically slower.
"""

import pytest

from repro import obs

#: Instrumented operations per measured call.
OPS_PER_CALL = 50_000

MODES = ("off", "metrics", "metrics+trace")


def _configure(mode: str) -> None:
    obs.reset()
    if mode in ("metrics", "metrics+trace"):
        obs.enable_metrics()
    if mode == "metrics+trace":
        obs.enable_tracing()


def _instrumented_loop() -> int:
    # Call sites fetch metrics once and then inc on the hot path; the
    # span helper is called per operation (that is its real cost).
    counter = obs.counter("bench.ops")
    total = 0
    for i in range(OPS_PER_CALL):
        with obs.span("bench.op"):
            total += i
        counter.inc()
    return total


def _populated_broker():
    """A broker with every snapshot section lit, as the scraper sees it."""
    from repro.dist import Broker

    broker = Broker(lease_timeout=60.0)
    broker.submit("bench", ["p%d" % i for i in range(64)])
    for worker in ("w1", "w2", "w3", "w4"):
        for _ in range(8):  # unobserved jobs lease one at a time
            (job_id, payload), = broker.lease_jobs(worker)
            broker.complete_many(worker, [(job_id, payload, 0.01)])
        broker.heartbeat(
            worker,
            metrics={
                "counters": {
                    "worker.jobs": 8,
                    "cachetier.hits": 4,
                    "cachetier.misses": 4,
                    "scenario.replications.erlang": 32,
                    "scenario.blocks.erlang": 8,
                },
                "gauges": {"worker.outbox": 0},
            },
        )
    broker.cache_put("key", b"x" * 128)
    broker.cache_get("key")
    return broker


def test_bench_obs_scrape(benchmark):
    """Snapshots rendered to Prometheus text per second (the scrape path).

    One iteration is exactly what one ``GET /metrics`` costs the broker
    side: ``obs_snapshot()`` plus ``render_prometheus``.
    ``extra_info.snapshots_per_second`` lands in ``BENCH_quick.json`` so
    a regression in the exposition path (which runs on the broker's
    box, next to the queue) is caught like any other hot-path slip.
    """
    from repro.obs.promexport import render_prometheus

    broker = _populated_broker()

    def _scrape():
        return render_prometheus(broker.obs_snapshot())

    text = benchmark(_scrape)
    assert "repro_queue_completed_total 32" in text
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.group = "obs_scrape"
        benchmark.extra_info["snapshots_per_second"] = round(
            1.0 / benchmark.stats["mean"]
        )


@pytest.mark.parametrize("mode", MODES)
def test_bench_obs_overhead(benchmark, mode):
    """Instrumented ops per second with obs off / metrics / tracing."""
    _configure(mode)
    try:
        expected = sum(range(OPS_PER_CALL))
        result = benchmark(_instrumented_loop)
        assert result == expected  # observation never changes the result
        if benchmark.stats:  # absent under --benchmark-disable
            benchmark.group = "obs_overhead"
            benchmark.extra_info["mode"] = mode
            benchmark.extra_info["ops"] = OPS_PER_CALL
            benchmark.extra_info["events_per_second"] = round(
                OPS_PER_CALL / benchmark.stats["mean"]
            )
    finally:
        obs.reset()
