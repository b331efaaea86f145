"""Benchmarks for the distributed queue (repro.dist): overhead, RPC
latency by message size, and makespan.

``bench_dist_overhead`` measures the pure round-trip cost of the
broker/worker path — trivial ``echo`` jobs through an in-process broker
and two local worker processes.  The warm-up map teaches the broker's
cost model what an ``echo`` costs, so each measured batch comes back as
one pinned bulk lease with zero per-job ``start()`` RPCs, and the
worker uploads ``complete_many()`` envelopes of 8.

``bench_dist_rpc_latency`` times ``cache_get`` round trips through a
real ``BrokerServer`` at three message sizes: 1 KiB, then 24 KiB and
96 KiB, past the 16 KiB at which ``multiprocessing.connection`` writes
a message as a header and a separate body.  The echo jobs above never
cross that size; a broker socket with Nagle's algorithm on stalls such
a body ~40 ms on the peer's delayed ACK.  Each row reports
``round_trips_per_second`` in ``extra_info``.

``bench_dist_matrix_pass`` times one warm ``run_matrix`` pass (amba
and single-bus-4 at their declared budgets, 16 replications, horizon
200) through an in-process broker and one worker process: the fleet's
real workload, where pinned leases reach the worker as one mega-batch
block per leased cell and the driver's long poll returns on the last
upload.  The pass must equal the serial run.

``bench_dist_makespan`` measures what cost scheduling is *for*: a
skewed matrix (one long cell submitted last + many short cells) on a
4-worker fleet.  The warm cost model orders the long cell first (LPT)
and the shorts pack behind it, instead of the long cell running alone
at the tail.  The overhead, matrix-pass and makespan benches report
``jobs_per_second`` in
``extra_info`` (the makespan row also ``makespan_seconds``) so
``diff_bench.py`` tracks them run over run.  The equivalence assert
(ordered merge equals the serial list) rides along like in every other
bench.
"""

import multiprocessing

import pytest

from repro.dist import (
    BrokerServer,
    DistExecutor,
    build_matrix,
    connect,
    run_matrix,
    worker_loop,
)
from repro.dist.jobs import echo, sleep_block

#: Trivial jobs per measured overhead map call.
JOBS_PER_CALL = 32

#: Message sizes of the RPC latency bench (bytes of the fetched blob).
RPC_MESSAGE_BYTES = (1024, 24 * 1024, 96 * 1024)

#: ``cache_get`` round trips per measured latency call.
RPC_ROUND_TRIPS = 20

#: The matrix-pass bench's workload (each scenario's budget axis).
MATRIX = dict(
    scenario_names=("amba", "single-bus-4"),
    replications=16,
    duration=200.0,
)

#: The skewed makespan matrix: many short cells plus one long cell
#: submitted last (the arrival-order worst case the scheduler fixes).
SHORT_JOBS = 64
SHORT_SECONDS = 0.04
LONG_SECONDS = 1.0


def _start_fleet(workers):
    server = BrokerServer(port=0, lease_timeout=30.0).start_in_thread()
    context = multiprocessing.get_context()
    procs = [
        context.Process(
            target=worker_loop, args=(server.address,), daemon=True
        )
        for _ in range(workers)
    ]
    for proc in procs:
        proc.start()
    return server, procs


@pytest.fixture(scope="module")
def fleet():
    """A 2-worker fleet whose cost model has observed ``echo``."""
    server, procs = _start_fleet(workers=2)
    executor = DistExecutor(server.address, timeout=120)
    executor.map(echo, [0])  # connect, spin the workers up, observe echo
    yield executor
    for proc in procs:
        proc.terminate()
    server.stop()


def test_bench_dist_overhead(benchmark, fleet):
    """Round-trips per second of the work-stealing queue (echo jobs)."""
    items = list(range(JOBS_PER_CALL))
    result = benchmark(lambda: fleet.map(echo, items))
    assert result == items  # the ordered-merge contract, measured path
    benchmark.extra_info["jobs_per_call"] = JOBS_PER_CALL
    benchmark.extra_info["jobs_per_second"] = round(
        JOBS_PER_CALL / benchmark.stats["mean"], 1
    )
    benchmark.extra_info["steals"] = fleet.stats()["steals"]


@pytest.fixture(scope="module")
def matrix_fleet():
    """One worker behind a warm broker, and the serial reference.

    The warm-up pass publishes every cell's sizing to the shared store
    and teaches the cost model each cell's rate, so measured passes
    lease pinned bulk, as a long fleet run does after its first cells.
    """
    server, procs = _start_fleet(workers=1)
    executor = DistExecutor(server.address, timeout=120)
    run_matrix(executor=executor, **MATRIX)
    yield executor, run_matrix(**MATRIX).to_jsonable()
    for proc in procs:
        proc.terminate()
    server.stop()


def test_bench_dist_matrix_pass(benchmark, matrix_fleet):
    """Replication blocks per second of one warm fleet matrix pass."""
    executor, expected = matrix_fleet
    outcome = benchmark(lambda: run_matrix(executor=executor, **MATRIX))
    assert outcome.to_jsonable() == expected  # bitwise the serial run
    jobs = len(build_matrix(**MATRIX))
    benchmark.extra_info["jobs_per_pass"] = jobs
    benchmark.extra_info["jobs_per_second"] = round(
        jobs / benchmark.stats["mean"], 1
    )


@pytest.fixture(scope="module")
def rpc_broker():
    """A broker on TCP and one driver-side proxy connected to it."""
    server = BrokerServer(port=0).start_in_thread()
    yield server.broker, connect(server.address).broker
    server.stop()


@pytest.mark.parametrize(
    "size", RPC_MESSAGE_BYTES, ids=lambda size: f"{size // 1024}KiB"
)
def test_bench_dist_rpc_latency(benchmark, rpc_broker, size):
    """``cache_get`` round trips per second at one message size."""
    broker, proxy = rpc_broker
    key = f"blob-{size}"
    blob = bytes(range(256)) * (size // 256)
    broker.cache_put(key, blob)

    def run():
        return [proxy.cache_get(key) for _ in range(RPC_ROUND_TRIPS)]

    fetched = benchmark(run)
    assert fetched == [blob] * RPC_ROUND_TRIPS  # bytes survive the wire
    benchmark.extra_info["message_bytes"] = size
    benchmark.extra_info["round_trips_per_second"] = round(
        RPC_ROUND_TRIPS / benchmark.stats["mean"], 1
    )


@pytest.fixture(scope="module")
def makespan_fleet():
    """A 4-worker fleet with a warm cost model.

    The warm-up passes run the skewed matrix so the broker's EWMA
    rates know the long cell from the shorts — the bench then measures
    scheduling quality, not cold-start learning.
    """
    server, procs = _start_fleet(workers=4)
    executor = DistExecutor(server.address, timeout=120)
    executor.map(sleep_block, _matrix(scale=0.1))  # spin up + warm model
    executor.map(sleep_block, _matrix(scale=1.0))
    yield executor
    for proc in procs:
        proc.terminate()
    server.stop()


def _matrix(scale=1.0):
    """The skewed job list: shorts first, the long cell dead last."""
    items = [
        {"scenario": "short", "index": i, "duration": SHORT_SECONDS * scale}
        for i in range(SHORT_JOBS)
    ]
    items.append(
        {"scenario": "long", "index": SHORT_JOBS, "duration": LONG_SECONDS * scale}
    )
    return items


def test_bench_dist_makespan(benchmark, makespan_fleet):
    """Skewed-matrix makespan: cost/LPT dispatch front-loads the long
    cell."""
    items = _matrix()
    expected = [
        {"scenario": it["scenario"], "index": it["index"], "duration": it["duration"]}
        for it in items
    ]

    def run():
        return makespan_fleet.map(sleep_block, items)

    result = benchmark.pedantic(run, iterations=1, rounds=2)
    assert result == expected  # scheduling cannot change the merge
    makespan = benchmark.stats["mean"]
    benchmark.extra_info["workers"] = 4
    benchmark.extra_info["makespan_seconds"] = round(makespan, 4)
    benchmark.extra_info["jobs_per_second"] = round(
        len(items) / makespan, 1
    )
