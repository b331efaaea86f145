"""Tests for repro.dist — distributed execution.

Covers the broker protocol (lease/re-enqueue/reap state machine, with
an injectable clock), the shared cache tier (read-through,
write-through, publish gating), and the end-to-end contracts: a fleet
map merges bitwise-identically to the serial loop for any worker
count, lease order, or worker death mid-job, and a second worker
reuses the first worker's converged sizing through the shared store.
"""

import itertools
import multiprocessing
import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.dist import (
    Broker,
    BrokerServer,
    CacheTier,
    DistExecutor,
    JobPayload,
    build_matrix,
    parse_address,
    run_matrix,
    worker_loop,
)
from repro.dist.jobs import echo, run_block
from repro.errors import ReproError
from repro.exec import ExecutionContext, ResultCache
from repro.retry import RetryPolicy

#: Short lease so dead-worker tests run in seconds; long enough that a
#: loaded CI box never reaps a live worker (they beat every lease/4).
LEASE_TIMEOUT = 2.0

_FORK = multiprocessing.get_context("fork")

#: Retry policy for tests that exercise failure paths: real backoff
#: shape, near-zero waiting.
_FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02)


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"kaboom on {x}")


def _boom_with_huge_message(x):
    raise ValueError("boom " + "y" * 100_000)


def _stall_once_then_cache(item):
    """First attempt stalls forever (to be killed); retry caches a value.

    The marker file distinguishes attempts across worker processes; the
    cache publish happens strictly after the stall, so a worker killed
    mid-job can never have published anything.
    """
    from repro.dist import jobs as dist_jobs

    marker = Path(item["marker"])
    if not marker.exists():
        marker.write_text("attempt-1")
        time.sleep(120)
    tier = dist_jobs.active_cache()
    return tier.fetch(
        "test-kind", {"k": item["key"]}, lambda: item["value"]
    )


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _lease_each(broker, worker_id, count):
    """Lease ``count`` never-observed jobs, one per call.

    A worker id holds one lease at a time (its next call hands the
    lease back), so call ``n`` leases as ``{worker_id}.{n}``.
    """
    leased = []
    for n in range(count):
        lease = broker.lease_jobs(f"{worker_id}.{n}")
        assert len(lease) == 1
        leased.extend(lease)
    return leased


def _tear_first_cache_get(broker):
    """Make ``broker`` tear the connection its first ``cache_get``
    arrives on: the socket is shut down before the reply goes out.
    Returns the list of torn keys."""
    from repro.dist import queue

    real = broker.cache_get
    torn = []

    def cache_get(key):
        if not torn:
            torn.append(key)
            fd = os.dup(queue._serving.conn.fileno())
            with socket.socket(fileno=fd) as sock:
                sock.shutdown(socket.SHUT_RDWR)
        return real(key)

    broker.cache_get = cache_get
    return torn


def _start_worker(address, **kwargs):
    process = _FORK.Process(
        target=worker_loop, args=(address,), kwargs=kwargs, daemon=True
    )
    process.start()
    return process


@pytest.fixture()
def server():
    broker_server = BrokerServer(
        port=0, lease_timeout=LEASE_TIMEOUT
    ).start_in_thread()
    yield broker_server
    broker_server.stop()


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("127.0.0.1:7070") == ("127.0.0.1", 7070)

    def test_pair(self):
        assert parse_address(("broker", 9)) == ("broker", 9)

    def test_rejects_garbage(self):
        for bad in ("no-port", "host:", ":70", 7, "host:port"):
            with pytest.raises(ReproError):
                parse_address(bad)


class TestBrokerProtocol:
    def test_submit_pull_complete_roundtrip(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, i) for i in range(3)])
        leased = _lease_each(broker, "w1", 3)
        assert [job_id for job_id, _ in leased] == [
            ("b", 0), ("b", 1), ("b", 2)
        ]
        broker.complete_many(
            "w1",
            [
                (job_id, payload.fn(payload.item), None)
                for job_id, payload in leased
            ],
        )
        assert broker.fetch_ready("b", 0) == [0, 1, 2]
        assert broker.batch_status("b") == (3, 3)

    def test_fetch_ready_is_contiguous_prefix(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, i) for i in range(3)])
        leased = _lease_each(broker, "w1", 3)
        # Complete out of order: index 2 first.
        broker.complete_many("w1", [(leased[2][0], 2, None)])
        assert broker.fetch_ready("b", 0) == []
        broker.complete_many("w1", [(leased[0][0], 0, None)])
        assert broker.fetch_ready("b", 0) == [0]

    def test_dead_worker_jobs_reenqueued_in_index_order(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=1.0, clock=clock)
        broker.submit("b", [JobPayload(echo, i) for i in range(3)])
        _lease_each(broker, "w1", 2)
        clock.advance(1.5)  # both holders die mid-execution
        granted = _lease_each(broker, "w2", 3)
        # Both dead leases come back, at the front of the queue and in
        # index order, ahead of the never-leased job 2.
        assert [job_id for job_id, _ in granted] == [
            ("b", 0), ("b", 1), ("b", 2)
        ]
        assert broker.stats()["reaped_jobs"] == 2
        assert broker.stats()["workers"] == 3  # the dead holders are gone

    def test_lost_lease_is_re_leased_on_the_workers_next_call(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=1.0, clock=clock)
        features = {"kind": "echo", "units": 1.0}
        broker.cost_model.observe(features, 0.01)
        broker.submit(
            "b", [JobPayload(echo, i) for i in range(4)],
            features=[features] * 4,
        )
        lost = broker.lease_jobs("w1")  # the reply never reaches w1
        assert len(lost) == 4
        # w1 lives on, so no reap frees the lease it never saw.
        for _ in range(3):
            clock.advance(0.9)
            broker.heartbeat("w1")
            assert broker.fetch_ready("b", 0) == []
        stats = broker.stats()
        assert (stats["pending"], stats["leased"]) == (0, 4)
        assert stats["reaped_jobs"] == 0
        # Its next lease call hands the lost lease back, and gets it.
        assert broker.lease_jobs("w1") == lost
        assert broker.stats()["reaped_jobs"] == 4

    def test_duplicate_completion_is_ignored(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=1.0, clock=clock)
        broker.submit("b", [JobPayload(echo, 0)])
        (job_id, _), = broker.lease_jobs("w1")
        clock.advance(1.5)  # w1 presumed dead
        (rejob, _), = broker.lease_jobs("w2")
        assert rejob == job_id
        broker.complete_many("w2", [(job_id, "w2-result", None)])
        # The slow-but-alive w1 finishes too; jobs are pure so both
        # results are the same bits — first one in wins, harmlessly.
        broker.complete_many("w1", [(job_id, "w1-result", None)])
        assert broker.fetch_ready("b", 0) == ["w2-result"]

    def test_drop_batch_forgets_everything(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, i) for i in range(3)])
        broker.lease_jobs("w1")
        broker.drop_batch("b")
        with pytest.raises(ReproError):
            broker.batch_status("b")
        assert broker.lease_jobs("w1") == []

    def test_duplicate_batch_id_rejected(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, 0)])
        with pytest.raises(ReproError):
            broker.submit("b", [JobPayload(echo, 1)])

    def test_invalid_lease_timeout(self):
        with pytest.raises(ReproError):
            Broker(lease_timeout=0)


def _in_thread(call):
    """Run ``call`` on a thread; the box gets its outcome and return time."""
    box = {}

    def run():
        try:
            box["value"] = call()
        except Exception as exc:
            box["error"] = exc
        box["at"] = time.monotonic()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


class TestBrokerLongPoll:
    def test_fetch_returns_on_the_completion_that_fills_start(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, i) for i in range(2)])
        _lease_each(broker, "w", 2)
        thread, box = _in_thread(lambda: broker.fetch_ready("b", 0, wait=5))
        time.sleep(0.1)
        # Index 1 alone leaves the prefix empty: the fetch keeps waiting.
        broker.complete_many("w", [(("b", 1), "r1", None)])
        time.sleep(0.1)
        assert thread.is_alive()
        filled_at = time.monotonic()
        broker.complete_many("w", [(("b", 0), "r0", None)])
        thread.join(5)
        assert not thread.is_alive()
        assert box["value"] == ["r0", "r1"]
        assert box["at"] - filled_at < 0.05

    def test_lease_returns_on_submit(self):
        broker = Broker(lease_timeout=10.0)
        thread, box = _in_thread(lambda: broker.lease_jobs("w", wait=5))
        time.sleep(0.1)
        assert thread.is_alive()
        submitted_at = time.monotonic()
        broker.submit("b", [JobPayload(echo, 0)])
        thread.join(5)
        assert not thread.is_alive()
        assert [job_id for job_id, _ in box["value"]] == [("b", 0)]
        assert box["at"] - submitted_at < 0.05

    def test_waiters_woken_together_do_not_steal_from_each_other(self):
        broker = Broker(lease_timeout=10.0)
        waiters = [
            _in_thread(lambda w=w: broker.lease_jobs(w, wait=0.3))
            for w in ("w1", "w2", "w3")
        ]
        time.sleep(0.1)
        broker.submit("b", [JobPayload(echo, 0)])
        for thread, _ in waiters:
            thread.join(5)
            assert not thread.is_alive()
        sizes = sorted(len(box["value"]) for _, box in waiters)
        assert sizes == [0, 0, 1]

    def test_waits_return_empty_when_nothing_arrives(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, 0)])
        broker.lease_jobs("w1")  # running: nothing left to lease
        start = time.monotonic()
        assert broker.fetch_ready("b", 0, wait=0.1) == []
        assert broker.lease_jobs("w2", wait=0.1) == []
        assert 0.2 <= time.monotonic() - start < 1.0

    def test_fetch_waiting_on_a_dropped_batch_raises(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, 0)])
        thread, box = _in_thread(lambda: broker.fetch_ready("b", 0, wait=5))
        time.sleep(0.1)
        dropped_at = time.monotonic()
        broker.drop_batch("b")
        thread.join(5)
        assert not thread.is_alive()
        assert "unknown batch" in str(box["error"])
        assert box["at"] - dropped_at < 0.05

    def test_reap_wakes_a_waiting_lease_with_the_orphaned_job(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=5.0, clock=clock)
        broker.submit("b", [JobPayload(echo, 0)])
        (job_id, _), = broker.lease_jobs("dead")
        thread, box = _in_thread(lambda: broker.lease_jobs("idle", wait=5))
        time.sleep(0.1)
        assert thread.is_alive()
        clock.advance(6.0)
        reaped_at = time.monotonic()
        broker.fetch_ready("b", 0)  # the driver's call reaps "dead"
        thread.join(5)
        assert not thread.is_alive()
        assert [j for j, _ in box["value"]] == [job_id]
        assert box["at"] - reaped_at < 0.05
        assert broker.stats()["reaped_jobs"] == 1


    def test_concurrent_long_polls_run_every_job_exactly_once(self):
        import sys

        broker = Broker(lease_timeout=10.0)
        batches = {f"b{n}": 50 for n in range(4)}
        runs = {}
        runs_lock = threading.Lock()
        done = threading.Event()

        def work(worker_id):
            while not done.is_set():
                for job_id, payload in broker.lease_jobs(worker_id, wait=0.2):
                    with runs_lock:
                        runs[job_id] = runs.get(job_id, 0) + 1
                    broker.complete_many(
                        worker_id, [(job_id, payload.item, 0.0)]
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        workers = [
            threading.Thread(target=work, args=(f"w{n}",), daemon=True)
            for n in range(8)
        ]
        try:
            for worker in workers:
                worker.start()
            for batch_id, size in batches.items():
                broker.submit(
                    batch_id, [JobPayload(echo, i) for i in range(size)]
                )
            deadline = time.monotonic() + 30
            for batch_id, size in batches.items():
                ready = []
                while len(ready) < size:
                    assert time.monotonic() < deadline, "jobs went missing"
                    ready += broker.fetch_ready(batch_id, len(ready), 0.2)
                assert ready == list(range(size))
        finally:
            done.set()
            for worker in workers:
                worker.join(5)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(runs) == sum(batches.values())
        assert set(runs.values()) == {1}

class TestBrokerCacheStore:
    def test_get_put_roundtrip_and_stats(self):
        broker = Broker()
        assert broker.cache_get("k") is None
        broker.cache_put("k", b"blob")
        assert broker.cache_get("k") == b"blob"
        stats = broker.cache_stats()
        assert stats["entries"] == 1
        assert stats["gets"] == 2
        assert stats["hits"] == 1
        assert stats["puts"] == 1

    def test_lru_bound_evicts_oldest(self):
        broker = Broker(cache_max_bytes=100)
        broker.cache_put("a", b"x" * 60)
        broker.cache_put("b", b"y" * 60)  # pushes out "a"
        assert broker.cache_get("a") is None
        assert broker.cache_get("b") is not None
        assert broker.cache_stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        broker = Broker(cache_max_bytes=100)
        broker.cache_put("a", b"x" * 40)
        broker.cache_put("b", b"y" * 40)
        broker.cache_get("a")  # a is now the most recent
        broker.cache_put("c", b"z" * 40)  # evicts b, not a
        assert broker.cache_get("a") is not None
        assert broker.cache_get("b") is None


class TestCacheTier:
    def test_same_keys_as_disk_store(self, tmp_path):
        tier = CacheTier(remote=Broker())
        disk = ResultCache(tmp_path)
        payload = {"topology": {"name": "t"}, "budget": 4}
        assert tier.key("sizing", payload) == disk.key("sizing", payload)

    def test_write_through_and_cross_worker_read_through(self, tmp_path):
        broker = Broker()
        tier_a = CacheTier(
            remote=broker, local=ResultCache(tmp_path / "a")
        )
        computes = []

        def compute():
            computes.append(1)
            return {"answer": 41}

        assert tier_a.fetch("kind", {"x": 1}, compute) == {"answer": 41}
        assert computes == [1]
        assert tier_a.publishes == 1
        # A different worker (fresh tier, its own disk) hits the shared
        # store without recomputing, and writes back to its local tier.
        tier_b = CacheTier(
            remote=broker, local=ResultCache(tmp_path / "b")
        )
        assert tier_b.fetch(
            "kind", {"x": 1}, lambda: pytest.fail("must not recompute")
        ) == {"answer": 41}
        assert tier_b.shared_hits == 1
        hit, value = tier_b.local.get(tier_b.key("kind", {"x": 1}))
        assert hit and value == {"answer": 41}
        # Third read is served from the tier's memo: the network
        # round-trip is paid once per key.
        gets = broker.cache_stats()["gets"]
        tier_b.lookup(tier_b.key("kind", {"x": 1}))
        assert tier_b.memo_hits == 1
        assert broker.cache_stats()["gets"] == gets
        # The write-back outlives the process: a restarted worker on
        # the same disk reads it locally.
        restarted = CacheTier(
            remote=broker, local=ResultCache(tmp_path / "b")
        )
        restarted.lookup(restarted.key("kind", {"x": 1}))
        assert restarted.local_hits == 1
        assert broker.cache_stats()["gets"] == gets

    def test_local_tier_is_optional(self):
        broker = Broker()
        tier = CacheTier(remote=broker)
        tier.put("k-no-local", 7)
        hit, value = tier.lookup("k-no-local")
        assert hit and value == 7
        assert tier.shared_hits == 1

    def test_should_store_veto_never_publishes(self):
        broker = Broker()
        tier = CacheTier(remote=broker)
        value = tier.fetch(
            "kind", {"x": 2}, lambda: 99, should_store=lambda v: False
        )
        assert value == 99
        assert broker.cache_stats()["entries"] == 0
        assert tier.publishes == 0

    def test_corrupt_shared_blob_reads_as_miss(self):
        broker = Broker()
        tier = CacheTier(remote=broker)
        key = tier.key("kind", {"x": 3})
        broker.cache_put(key, b"not a pickle")
        hit, value = tier.lookup(key)
        assert not hit and value is None
        assert tier.misses == 1
        assert tier.quarantined == 1

    def test_bitflipped_shared_blob_quarantined_then_healed(self):
        from repro.exec.cache import pack_entry

        broker = Broker()
        tier = CacheTier(remote=broker)
        key = tier.key("kind", {"x": 4})
        blob = bytearray(pack_entry({"answer": 41}))
        blob[-1] ^= 0xFF  # valid framing, failing digest
        broker.cache_put(key, bytes(blob))
        hit, _ = tier.lookup(key)
        assert not hit
        assert tier.quarantined == 1
        # fetch recomputes and republishes a clean entry: self-heal.
        assert tier.fetch("kind", {"x": 4}, lambda: {"answer": 41}) == {
            "answer": 41
        }
        fresh = CacheTier(remote=broker)
        assert fresh.lookup(key) == (True, {"answer": 41})

    def test_truncated_shared_blob_reads_as_miss(self):
        from repro.exec.cache import pack_entry

        broker = Broker()
        tier = CacheTier(remote=broker)
        key = tier.key("kind", {"x": 5})
        whole = pack_entry([1, 2, 3])
        broker.cache_put(key, whole[: len(whole) // 3])
        hit, value = tier.lookup(key)
        assert not hit and value is None
        assert tier.quarantined == 1

    def test_lost_remote_degrades_to_local_only(self, tmp_path):
        class _DeadStore:
            def cache_get(self, key):
                raise ConnectionResetError("store gone")

            def cache_put(self, key, blob):
                raise ConnectionResetError("store gone")

        tier = CacheTier(
            remote=_DeadStore(),
            local=ResultCache(tmp_path),
            retry=_FAST_RETRY,
        )
        # A put against a dead store degrades (local write still
        # lands) instead of raising into the job.
        tier.put("k-degraded", 7)
        assert tier.remote_down
        assert tier.publishes == 0
        hit, value = tier.lookup("k-degraded")
        assert hit and value == 7
        assert tier.local_hits == 1
        # Degraded mode stops touching the remote entirely.
        tier.put("k-more", 8)
        assert tier.fetch("kind", {"x": 9}, lambda: 10) == 10

    def test_repeated_lookups_cost_one_shared_get(self):
        broker = Broker()
        CacheTier(remote=broker).put("k-memo", {"answer": 41})
        tier = CacheTier(remote=broker)
        for _ in range(5):
            assert tier.lookup("k-memo") == (True, {"answer": 41})
        assert broker.cache_stats()["gets"] == 1
        assert tier.shared_hits == 1
        assert tier.memo_hits == 4
        assert tier.hits == 5

    def test_damaged_blobs_never_enter_the_memo(self):
        from repro.exec.cache import pack_entry

        broker = Broker()
        tier = CacheTier(remote=broker)
        whole = pack_entry({"answer": 41})
        flipped = bytearray(whole)
        flipped[-1] ^= 0xFF
        for damaged in (bytes(flipped), whole[: len(whole) // 3]):
            broker.cache_put("k-damaged", damaged)
            for _ in range(2):
                assert tier.lookup("k-damaged") == (False, None)
        # Every lookup went back to the store: nothing was memoised.
        assert tier.quarantined == 4
        assert tier.memo_hits == 0
        assert broker.cache_stats()["gets"] == 4
        # Healed by a clean publish, the entry memoises normally.
        broker.cache_put("k-damaged", whole)
        assert tier.lookup("k-damaged") == (True, {"answer": 41})
        assert tier.lookup("k-damaged") == (True, {"answer": 41})
        assert tier.memo_hits == 1
        assert broker.cache_stats()["gets"] == 5

    def test_memo_evicts_least_recent_past_its_bound(self):
        from repro.dist.cachetier import MEMO_ENTRIES

        broker = Broker()
        publisher = CacheTier(remote=broker)
        keys = [f"k-{i}" for i in range(MEMO_ENTRIES + 1)]
        for i, key in enumerate(keys):
            publisher.put(key, i)
        tier = CacheTier(remote=broker)
        for key in keys:
            tier.lookup(key)
        gets = broker.cache_stats()["gets"]
        # The newest MEMO_ENTRIES answer from memory...
        assert tier.lookup(keys[-1]) == (True, MEMO_ENTRIES)
        assert tier.lookup(keys[1]) == (True, 1)
        assert broker.cache_stats()["gets"] == gets
        # ...the oldest was evicted and costs a store round trip.
        assert tier.lookup(keys[0]) == (True, 0)
        assert broker.cache_stats()["gets"] == gets + 1
        assert len(tier._memo) == MEMO_ENTRIES

    def test_degraded_tier_still_serves_memoised_values(self):
        class _DyingStore:
            def __init__(self):
                self.broker = Broker()
                self.alive = True

            def cache_get(self, key):
                if not self.alive:
                    raise ConnectionResetError("store gone")
                return self.broker.cache_get(key)

            def cache_put(self, key, blob):
                self.broker.cache_put(key, blob)

        store = _DyingStore()
        tier = CacheTier(remote=store, retry=_FAST_RETRY)
        tier.put("k-kept", 7)
        assert tier.lookup("k-kept") == (True, 7)
        store.alive = False
        assert tier.lookup("k-other") == (False, None)
        assert tier.remote_down
        assert tier.lookup("k-kept") == (True, 7)
        assert tier.memo_hits == 1


class TestDistExecutor:
    def test_map_matches_serial_any_worker_count(self, server):
        workers = [_start_worker(server.address) for _ in range(2)]
        try:
            executor = DistExecutor(server.address, timeout=60)
            items = list(range(23))
            assert executor.map(_double, items) == [2 * x for x in items]
        finally:
            for worker in workers:
                worker.terminate()

    def test_on_result_streams_in_index_order(self, server):
        worker = _start_worker(server.address)
        try:
            executor = DistExecutor(server.address, timeout=60)
            seen = []
            executor.map(
                _double,
                range(7),
                on_result=lambda i, r: seen.append((i, r)),
            )
            assert seen == [(i, 2 * i) for i in range(7)]
        finally:
            worker.terminate()

    def test_empty_map_is_empty(self, server):
        executor = DistExecutor(server.address, timeout=5)
        assert executor.map(_double, []) == []

    def test_job_exception_reraises_with_worker_traceback(self, server):
        worker = _start_worker(server.address)
        try:
            executor = DistExecutor(server.address, timeout=60)
            with pytest.raises(ReproError) as excinfo:
                executor.map(_boom, [5])
            assert "kaboom on 5" in str(excinfo.value)
            assert "worker traceback" in str(excinfo.value)
        finally:
            worker.terminate()

    def test_timeout_without_workers_is_an_error_not_a_hang(self, server):
        executor = DistExecutor(server.address, timeout=0.4)
        with pytest.raises(ReproError) as excinfo:
            executor.map(_double, [1, 2])
        assert "worker" in str(excinfo.value)


@pytest.fixture(scope="module")
def amba():
    from repro.arch.templates import amba_like

    return amba_like()


class TestWorkerFailureRecovery:
    def test_killed_worker_job_reenqueued_merge_identical_no_publish(
        self, server, tmp_path
    ):
        """The satellite contract: kill a worker mid-job.

        The job must be re-enqueued and completed by a surviving
        worker, the merged result must equal the serial answer, and
        the aborted attempt must have published nothing to the shared
        cache (exactly one publish: the successful attempt's).
        """
        marker = tmp_path / "attempt.marker"
        item = {"marker": str(marker), "key": "recovery", "value": 42}
        victim = _start_worker(server.address)
        outcome = {}

        def drive():
            executor = DistExecutor(server.address, timeout=90)
            outcome["result"] = executor.map(
                _stall_once_then_cache, [item]
            )

        driver = threading.Thread(target=drive)
        driver.start()
        # Wait until the victim is provably mid-job, then kill it hard.
        deadline = time.monotonic() + 30
        while not marker.exists():
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        victim.kill()
        victim.join()
        survivor = _start_worker(server.address)
        try:
            driver.join(timeout=60)
            assert not driver.is_alive(), "batch never completed"
            # Bitwise-identical to what the serial loop would return.
            assert outcome["result"] == [42]
            broker = server.broker
            assert broker.stats()["reaped_jobs"] >= 1
            stats = broker.cache_stats()
            assert stats["puts"] == 1  # only the successful attempt
            assert stats["entries"] == 1
        finally:
            survivor.terminate()


    def test_worker_heals_a_lease_reply_torn_after_the_grant(
        self, server, tmp_path
    ):
        """The connection drops right after the broker granted the
        worker's one 16-job lease: the worker reconnects, its next
        lease call gets the same jobs back, and the map finishes."""
        from repro.faults import FaultEvent, FaultInjector, FaultPlan, install

        server.broker.cost_model.observe({"kind": "echo", "units": 1.0}, 1e-3)
        log = tmp_path / "faults.log"
        plan = FaultPlan(
            events=(FaultEvent("connection_drop", "worker.lease"),),
            name="lease-reply-drop",
        )
        previous = install(FaultInjector(plan, log_path=str(log)))
        try:
            worker = _start_worker(server.address)  # forks the injector
        finally:
            install(previous)
        try:
            executor = DistExecutor(server.address, timeout=10)
            items = list(range(16))
            assert executor.map(echo, items) == items
        finally:
            worker.terminate()
        assert "site=worker.lease" in log.read_text()
        stats = server.broker.stats()
        assert (stats["lease_grants"], stats["reaped_jobs"]) == (2, 16)

    def test_shared_cache_is_used_again_after_a_torn_connection(
        self, server
    ):
        """The broker tears the worker's connection during its first
        shared-cache get.  The worker reconnects, and its tier reads
        and publishes through the new connection from the next cell
        on."""
        torn = _tear_first_cache_get(server.broker)
        first = dict(budgets=[8], replications=2, duration=100.0)
        later = dict(budgets=[20], replications=2, duration=100.0)
        worker = _start_worker(server.address)
        try:
            executor = DistExecutor(server.address, timeout=120)
            torn_run = run_matrix(["single-bus-4"], executor=executor, **first)
            assert len(torn) == 1
            before = server.broker.cache_stats()
            later_run = run_matrix(
                ["amba", "fig1"], executor=executor, **later
            )
            after = server.broker.cache_stats()
            (record,) = server.broker.obs_snapshot()["workers"].values()
        finally:
            worker.terminate()
        # The tear took the tier down once; the reconnect re-armed it.
        assert record["counters"].get("cachetier.remote_down") == 1
        assert server.broker.stats()["reaped_jobs"] == 0
        # Each later cell missed its sizing in the shared store and
        # published the one it solved.
        assert after["gets"] - before["gets"] >= 2
        assert after["puts"] - before["puts"] == 2
        assert torn_run.to_jsonable() == run_matrix(
            ["single-bus-4"], **first
        ).to_jsonable()
        assert later_run.to_jsonable() == run_matrix(
            ["amba", "fig1"], **later
        ).to_jsonable()


class TestFleetMatrix:
    MATRIX = dict(
        budgets=[8, 16], replications=2, duration=100.0
    )

    def test_build_matrix_enumerates_in_order(self):
        payloads = build_matrix(
            ["single-bus-4"], budgets=[8, 16], replications=2
        )
        slices = [
            (p["budget"], p["start"], p["stop"]) for p in payloads
        ]
        assert slices == [(8, 0, 1), (8, 1, 2), (16, 0, 1), (16, 1, 2)]
        assert all(p["scenario"] == "single-bus-4" for p in payloads)

    def test_build_matrix_defaults_to_scenario_axis(self):
        payloads = build_matrix(["amba"], replications=1)
        from repro import scenarios

        assert [p["budget"] for p in payloads] == list(
            scenarios.get("amba").budgets
        )

    def test_build_matrix_validation(self):
        with pytest.raises(ReproError):
            build_matrix([])
        with pytest.raises(ReproError):
            build_matrix(["single-bus-4"], replications=0)
        with pytest.raises(ReproError):
            build_matrix(["no-such-scenario"])

    def test_serial_pooled_identical(self):
        serial = run_matrix(["single-bus-4"], jobs=1, **self.MATRIX)
        pooled = run_matrix(["single-bus-4"], jobs=2, **self.MATRIX)
        assert pooled.to_jsonable() == serial.to_jsonable()

    def test_distributed_identical_even_under_worker_death(self, server):
        workers = [_start_worker(server.address) for _ in range(2)]
        killer = threading.Timer(0.4, workers[0].kill)
        killer.start()
        try:
            executor = DistExecutor(server.address, timeout=240)
            distributed = run_matrix(
                ["single-bus-4"], executor=executor, **self.MATRIX
            )
        finally:
            killer.cancel()
            for worker in workers:
                worker.terminate()
        serial = run_matrix(["single-bus-4"], jobs=1, **self.MATRIX)
        assert distributed.to_jsonable() == serial.to_jsonable()

    def test_second_worker_reuses_first_workers_sizing(self, server):
        """The shared-tier contract: cross-worker sizing reuse."""
        matrix = dict(budgets=[8], replications=2, duration=100.0)
        first = _start_worker(server.address)
        executor = DistExecutor(server.address, timeout=240)
        try:
            run_one = run_matrix(
                ["single-bus-4"], executor=executor, **matrix
            )
        finally:
            first.terminate()
            first.join()
        broker = server.broker
        stats_after_first = broker.cache_stats()
        assert stats_after_first["puts"] >= 1  # first worker published
        second = _start_worker(server.address)
        try:
            run_two = run_matrix(
                ["single-bus-4"], executor=executor, **matrix
            )
        finally:
            second.terminate()
        stats_after_second = broker.cache_stats()
        # The second worker read the first worker's converged sizing
        # out of the shared store instead of recomputing: at least one
        # shared hit per (worker, cell), and no new publishes.  Its
        # later blocks of the cell are served from its tier's memo.
        assert (
            stats_after_second["hits"]
            >= stats_after_first["hits"] + 1
        )
        assert stats_after_second["puts"] == stats_after_first["puts"]
        assert run_two.to_jsonable() == run_one.to_jsonable()

    @pytest.mark.parametrize("name", ["amba", "fig1", "coreconnect"])
    def test_a_cell_is_simulate_with_the_ctmdp_policy(self, name):
        """A `dist run` cell is `simulate --policy ctmdp`: its sizes are
        the CTMDP policy's allocation, its replications the context's
        batch at those sizes."""
        from repro import scenarios
        from repro.policies import CTMDPSizing

        spec = scenarios.get(name)
        budget = spec.default_budget
        runs = dict(replications=3, duration=200.0, base_seed=5)
        cell = run_matrix([name], budgets=[budget], **runs).cells[0]
        topology = spec.topology()
        allocation = CTMDPSizing().allocate(
            topology, budget
        )
        assert cell.sizes == dict(allocation.sizes)
        summary = ExecutionContext().scoped(spec).replicate(
            topology, allocation.as_capacities(), **runs
        )
        assert cell.summary.results == summary.results

    def test_run_block_is_pure_in_its_payload(self):
        payload = {
            "scenario": "single-bus-4",
            "budget": 8,
            "replications": 2,
            "start": 1,
            "stop": 2,
            "duration": 100.0,
            "base_seed": 0,
        }
        first = run_block(dict(payload))
        second = run_block(dict(payload))
        assert first == second
        assert first.sizes and sum(first.sizes.values()) == 8

    def test_render_and_json_artifacts(self, tmp_path):
        outcome = run_matrix(
            ["single-bus-4"], budgets=[8], replications=2, duration=100.0
        )
        table = outcome.render()
        assert "single-bus-4" in table and "mean loss" in table
        path = tmp_path / "fleet.json"
        outcome.write_json(path)
        import json

        payload = json.loads(path.read_text())
        assert payload[0]["scenario"] == "single-bus-4"
        assert payload[0]["budget"] == 8


class TestDriverDeathAndStalls:
    def test_abandoned_batches_dropped_after_ttl(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=1.0, clock=clock)
        broker.submit("orphan", [JobPayload(echo, i) for i in range(3)])
        clock.advance(broker.batch_ttl + 1.0)
        # Any traffic triggers the reap; the dead driver's batch (jobs,
        # results, bookkeeping) is gone and workers get nothing to burn
        # CPU on.
        assert broker.lease_jobs("w1") == []
        assert broker.stats()["dropped_batches"] == 1
        assert broker.stats()["batches"] == 0
        with pytest.raises(ReproError):
            broker.batch_status("orphan")

    def test_live_driver_polling_keeps_batch_alive(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=1.0, clock=clock)
        broker.submit("alive", [JobPayload(echo, 0)])
        # Four polls, each 0.6 TTL apart: 2.4 TTLs in all.
        for _ in range(4):
            clock.advance(0.6 * broker.batch_ttl)
            broker.fetch_ready("alive", 0)  # refreshes the TTL
        assert broker.stats()["dropped_batches"] == 0
        assert broker.batch_status("alive") == (0, 1)

    def test_no_workers_errors_after_grace_instead_of_hanging(
        self, server, monkeypatch
    ):
        from repro.dist import executor as executor_module

        monkeypatch.setattr(executor_module, "NO_WORKER_GRACE", 0.3)
        executor = DistExecutor(server.address)
        with pytest.raises(ReproError) as excinfo:
            executor.map(_double, [1, 2])
        assert "no live workers" in str(excinfo.value)

    def test_unreachable_broker_is_a_clean_error(self):
        executor = DistExecutor("127.0.0.1:1", timeout=5)
        with pytest.raises(ReproError) as excinfo:
            executor.map(_double, [1])
        assert "cannot connect to broker" in str(excinfo.value)

    def test_wrong_authkey_is_a_clean_error(self, server):
        executor = DistExecutor(
            server.address, authkey=b"not-the-secret", timeout=5
        )
        with pytest.raises(ReproError) as excinfo:
            executor.map(_double, [1])
        assert "authkey" in str(excinfo.value)


class TestMatrixDeduplication:
    def test_duplicate_budgets_and_scenarios_collapse(self):
        payloads = build_matrix(
            ["single-bus-4", "single-bus-4"],
            budgets=[12, 12, 8],
            replications=2,
        )
        cells = [(p["scenario"], p["budget"]) for p in payloads]
        # One cell per unique (scenario, budget), two blocks each —
        # never a cell with silently duplicated replications.
        assert cells == [
            ("single-bus-4", 12), ("single-bus-4", 12),
            ("single-bus-4", 8), ("single-bus-4", 8),
        ]

    def test_family_alias_spellings_collapse(self):
        payloads = build_matrix(
            ["random-mesh-04-7", "random-mesh-4-7"],
            budgets=[16],
            replications=1,
        )
        assert len(payloads) == 1
        assert payloads[0]["scenario"] == "random-mesh-4-7"


class _TricklingBroker:
    """Fake broker: one result per poll, never finishing fast."""

    def __init__(self, delay=0.04):
        self.delay = delay
        self.dropped = False
        self._count = 0

    def submit(self, batch_id, payloads, features=None):
        self.total = len(payloads)

    def fetch_ready(self, batch_id, start, wait=0.0):
        time.sleep(self.delay)
        self._count = min(self._count + 1, self.total)
        return list(range(start, self._count))

    def batch_status(self, batch_id):
        return (self._count, self.total)

    def stats(self):
        return {"workers": 1}

    def drop_batch(self, batch_id):
        self.dropped = True


class _DyingBroker(_TricklingBroker):
    def fetch_ready(self, batch_id, start, wait=0.0):
        raise ConnectionResetError("broker went away")

    def drop_batch(self, batch_id):
        raise BrokenPipeError("still away")


def _plant_fake_broker(executor, fake):
    class _Conn:
        broker = fake

    executor._connection = _Conn()


class TestDriverRobustness:
    def test_timeout_enforced_while_results_trickle(self):
        # Every poll yields one result, so the batch is never idle;
        # the overall bound must still fire instead of letting the run
        # exceed it indefinitely.
        executor = DistExecutor("127.0.0.1:1", timeout=0.1)
        fake = _TricklingBroker(delay=0.04)
        _plant_fake_broker(executor, fake)
        with pytest.raises(ReproError) as excinfo:
            executor.map(echo, list(range(50)))
        assert "timed out" in str(excinfo.value)
        assert fake.dropped  # cleanup still ran

    def test_dead_broker_falls_back_to_local_pool_by_default(self):
        executor = DistExecutor(
            "127.0.0.1:1", timeout=5, retry=_FAST_RETRY, fallback_jobs=1
        )
        _plant_fake_broker(executor, _DyingBroker())
        seen = []
        # Broker loss degrades to the local pool: same results, same
        # merge order, on_result indices continue from the (empty)
        # fleet-completed prefix.
        assert executor.map(
            _double, [1, 2, 3],
            on_result=lambda i, r: seen.append((i, r)),
        ) == [2, 4, 6]
        assert executor.fallbacks == 1
        assert seen == [(0, 2), (1, 4), (2, 6)]

    def test_dist_run_that_lost_its_broker_writes_its_json(
        self, server, tmp_path, capsys
    ):
        """The broker dies once the matrix is submitted: the run
        finishes on the local pool, exits 0 and writes the serial
        run's JSON, with one warning in place of the fleet counters."""
        from repro.cli import main

        real_submit = server.broker.submit
        stoppers = []

        def submit(*args, **kwargs):
            count = real_submit(*args, **kwargs)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stoppers.append(stopper)
            return count

        server.broker.submit = submit
        host, port = server.address
        matrix = [
            "--scenario", "single-bus-4", "--budgets", "8", "--reps", "2",
            "--duration", "100",
        ]
        fleet_json = tmp_path / "fleet.json"
        serial_json = tmp_path / "serial.json"
        try:
            assert main([
                "dist", "run", "--dist", f"{host}:{port}", *matrix,
                "--json", str(fleet_json),
            ]) == 0
        finally:
            for stopper in stoppers:
                stopper.join(timeout=30)
        assert len(stoppers) == 1 and not stoppers[0].is_alive()
        err = capsys.readouterr().err
        assert "warning: no fleet counters" in err
        assert "# fleet:" not in err
        assert main(
            ["dist", "run", *matrix, "--json", str(serial_json)]
        ) == 0
        assert fleet_json.read_text() == serial_json.read_text()

    def test_worker_against_down_broker_is_a_clean_error(self):
        with pytest.raises(ReproError) as excinfo:
            worker_loop("127.0.0.1:1")
        assert "cannot connect to broker" in str(excinfo.value)


class TestLocalSizingMemo:
    def test_cell_sizing_solved_once_per_local_run(self, monkeypatch):
        from repro.core.sizing import BufferSizer
        from repro.dist import jobs as dist_jobs

        calls = []
        original = BufferSizer.size

        def counting(self, topology):
            calls.append(1)
            return original(self, topology)

        monkeypatch.setattr(BufferSizer, "size", counting)
        outcome = run_matrix(
            ["single-bus-4"], budgets=[8], replications=3, duration=100.0
        )
        # Three replication blocks share one cell: one solve, not three.
        assert len(calls) == 1
        assert outcome.cells[0].summary.num_replications == 3
        # The run-scoped memo is uninstalled afterwards.
        assert dist_jobs.active_cache() is None

    def test_fallback_after_broker_loss_solves_each_cell_once(
        self, monkeypatch
    ):
        # The broker is lost at the first poll, so every block runs on
        # the driver's local pool under the run's memo.
        from repro.core.sizing import BufferSizer
        from repro.dist import jobs as dist_jobs

        matrix = dict(budgets=[12], replications=6, duration=100.0)
        serial = run_matrix(["amba"], **matrix)
        calls = []
        original = BufferSizer.size

        def counting(self, topology):
            calls.append(1)
            return original(self, topology)

        monkeypatch.setattr(BufferSizer, "size", counting)
        executor = DistExecutor(
            "127.0.0.1:1", timeout=5, retry=_FAST_RETRY, fallback_jobs=1
        )
        _plant_fake_broker(executor, _DyingBroker())
        outcome = run_matrix(["amba"], executor=executor, **matrix)
        assert executor.fallbacks == 1
        # Six replication blocks share one cell: one solve, not six.
        assert len(calls) == 1
        assert outcome.to_jsonable() == serial.to_jsonable()
        assert dist_jobs.active_cache() is None

    def test_process_memo_supports_the_full_store_interface(self, amba):
        # sweeps and context.replicate address the cache piecewise
        # (key/lookup/put), not only through fetch — a memo-backed
        # context must support every runtime path.
        from repro.dist.jobs import ProcessMemo

        memo = ProcessMemo()
        context = ExecutionContext(cache=memo)
        capacities = {name: 3 for name in amba.processors}
        first = context.replicate(
            amba, capacities, replications=2, duration=150.0
        )
        second = context.replicate(
            amba, capacities, replications=2, duration=150.0
        )
        assert memo.hits == 1
        assert first.results == second.results
        sweep = context.sweep(amba, [10, 10])
        assert sweep.points[0].result is sweep.points[1].result


class TestBrokerShutdown:
    """Regression tests for BrokerServer.stop() (PR 5 left the
    listener open because the stdlib accepter busy-spins on accept
    errors; the stoppable server must free the port and end the
    thread)."""

    def test_stop_frees_port_ends_thread_and_refuses(self):
        server = BrokerServer(
            port=0, lease_timeout=LEASE_TIMEOUT
        ).start_in_thread()
        host, port = server.address
        # Sanity: the broker answers while up.
        executor = DistExecutor(server.address, retry=_FAST_RETRY)
        assert executor.stats()["workers"] == 0
        server.stop()
        assert server._thread is None  # accept thread joined, not leaked
        # The port is immediately rebindable — the listener socket is
        # really closed, not leaked to a spinning daemon thread.
        rebound = BrokerServer(
            host=host, port=port, lease_timeout=LEASE_TIMEOUT
        )
        assert rebound.address == (host, port)
        rebound.stop()
        # And a client sees a clean, fast refusal — never a hang.
        dead = DistExecutor(server.address, retry=_FAST_RETRY)
        with pytest.raises(ReproError, match="cannot connect"):
            dead.stats()

    def test_stop_releases_a_blocked_long_poll(self):
        from repro.dist import connect

        server = BrokerServer(
            port=0, lease_timeout=LEASE_TIMEOUT
        ).start_in_thread()
        host, port = server.address
        proxy = connect(server.address).broker
        proxy.config()  # connected before the long poll starts
        thread, box = _in_thread(lambda: proxy.lease_jobs("w", 5))
        time.sleep(0.1)
        assert thread.is_alive()  # parked in the broker's wait
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 0.4  # not LONG_POLL_WAIT later
        thread.join(2)
        assert not thread.is_alive()
        rebound = BrokerServer(
            host=host, port=port, lease_timeout=LEASE_TIMEOUT
        )
        assert rebound.address == (host, port)
        rebound.stop()

    def test_a_caller_that_hangs_up_mid_poll_is_never_leased_work(
        self, server
    ):
        from repro.dist import connect

        def park():
            connect(server.address).broker.lease_jobs("ghost", 5)

        ghost = _FORK.Process(target=park, daemon=True)
        ghost.start()
        deadline = time.monotonic() + 30
        while server.broker.stats()["workers"] == 0:
            assert time.monotonic() < deadline, "ghost never polled"
            time.sleep(0.01)
        ghost.kill()  # dies while its lease call is parked
        ghost.join(5)
        assert not ghost.is_alive()
        time.sleep(0.05)
        server.broker.submit("b", [JobPayload(echo, 0)])
        time.sleep(0.1)  # the woken call looks, and answers nothing
        stats = server.broker.stats()
        assert (stats["pending"], stats["leased"]) == (1, 0)

    def test_stop_under_connection_churn_joins_every_thread(self):
        # More client threads than cores sit in long polls, or connect,
        # call and hang up, while stop() runs: it must release them
        # all, and no connection may outlive it.
        import sys

        from repro.dist import connect

        before = set(threading.enumerate())
        server = BrokerServer(
            port=0, lease_timeout=LEASE_TIMEOUT
        ).start_in_thread()
        done = threading.Event()

        def churn():
            while not done.is_set():
                try:
                    connect(server.address).broker.stats()
                except (OSError, EOFError):
                    return  # stopped under us

        def park(worker_id):
            try:
                broker = connect(server.address).broker
                while True:
                    broker.lease_jobs(worker_id, 5)
            except (OSError, EOFError):
                return  # aborted by stop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                threading.Thread(target=churn, daemon=True)
                for _ in range(4)
            ] + [
                threading.Thread(target=park, args=(f"w{i}",), daemon=True)
                for i in range(8)
            ]
            for client in clients:
                client.start()
            time.sleep(0.2)
            server.stop()
        finally:
            done.set()
            sys.setswitchinterval(interval)
        for client in clients:
            client.join(5)
            assert not client.is_alive()
        assert server._clients == {}
        assert not [
            thread
            for thread in set(threading.enumerate()) - before
            if thread.name == "repro-dist-connection"
        ]

    def test_stop_is_idempotent(self):
        server = BrokerServer(
            port=0, lease_timeout=LEASE_TIMEOUT
        ).start_in_thread()
        server.stop()
        server.stop()  # second stop must be a no-op, not an error

    def test_stop_before_serve_frees_the_port(self):
        server = BrokerServer(port=0, lease_timeout=LEASE_TIMEOUT)
        host, port = server.address
        server.stop()
        rebound = BrokerServer(
            host=host, port=port, lease_timeout=LEASE_TIMEOUT
        )
        rebound.stop()

    def test_probe_rejects_listener_that_never_answers(self, monkeypatch):
        # A kernel backlog kept alive by a leaked listener fd accepts
        # connections nobody will serve; connect() must turn that into
        # a fast refusal instead of letting the handshake block forever.
        import socket as socket_module

        from repro.dist import connect, queue

        monkeypatch.setattr(queue, "CHALLENGE_TIMEOUT", 0.1)
        silent = socket_module.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            start = time.monotonic()
            with pytest.raises(ConnectionRefusedError, match="challenge"):
                connect(silent.getsockname())
            assert time.monotonic() - start < 1.0
        finally:
            silent.close()


class TestReaperIdempotence:
    """A worker reaped mid-result-upload must cost exactly one reap:
    no double-counted reaps/completions, no phantom worker."""

    def _lease_one(self, broker):
        broker.submit("b", [JobPayload(echo, 1)])
        (job_id, _), = broker.lease_jobs("stalled-worker")
        return job_id

    def test_late_completion_counts_once_and_never_resurrects(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=5.0, clock=clock)
        job_id = self._lease_one(broker)
        # The worker stalls: no beats past the lease timeout; the
        # driver's poll reaps it and re-enqueues the job.
        clock.advance(6.0)
        assert broker.fetch_ready("b", 0) == []
        stats = broker.stats()
        assert stats["reaped_jobs"] == 1
        assert stats["workers"] == 0
        assert stats["pending"] == 1
        # The stalled worker was killed mid-upload — its completion
        # lands late.  It must store the result exactly once and must
        # NOT re-register the reaped worker as live.
        broker.complete_many("stalled-worker", [(job_id, "late-result", None)])
        stats = broker.stats()
        assert stats["completed"] == 1
        assert stats["workers"] == 0  # no phantom resurrection
        # The re-enqueued copy is now moot: a second worker leasing it
        # gets nothing (the payload is settled), and its own late
        # "completion" of the same job is ignored.
        assert broker.lease_jobs("healthy-worker") == []
        broker.complete_many(
            "healthy-worker", [(job_id, "duplicate-result", None)]
        )
        stats = broker.stats()
        assert stats["completed"] == 1  # not double-counted
        assert broker.fetch_ready("b", 0) == ["late-result"]
        # Further reap cycles have nothing left to reap.
        clock.advance(20.0)
        broker.fetch_ready("b", 0)
        assert broker.stats()["reaped_jobs"] == 1

    def test_reaped_worker_reregisters_on_next_pull(self):
        clock = _FakeClock()
        broker = Broker(lease_timeout=5.0, clock=clock)
        self._lease_one(broker)
        clock.advance(6.0)
        broker.fetch_ready("b", 0)
        assert broker.stats()["workers"] == 0
        # Its next lease re-registers it honestly, with the job the
        # reap re-enqueued.
        granted = broker.lease_jobs("stalled-worker")
        assert len(granted) == 1
        assert broker.stats()["workers"] == 1


class TestFailureTextBounds:
    def test_short_text_unchanged(self):
        from repro.dist.queue import truncate_failure_text

        assert truncate_failure_text("tiny", 100) == "tiny"

    def test_long_text_bounded_keeps_head_and_tail(self):
        from repro.dist.queue import truncate_failure_text

        text = "HEAD" + "x" * 50_000 + "TAIL"
        bounded = truncate_failure_text(text, 2_000)
        assert len(bounded) <= 2_000
        assert bounded.startswith("HEAD")
        assert bounded.endswith("TAIL")
        assert "characters truncated" in bounded

    def test_job_failure_payload_is_bounded(self):
        from repro.dist.queue import MAX_FAILURE_TEXT, JobFailure
        from repro.dist.worker import _execute

        failure = _execute(JobPayload(_boom_with_huge_message, 1))
        assert isinstance(failure, JobFailure)
        assert len(failure.error) <= MAX_FAILURE_TEXT
        assert len(failure.traceback) <= MAX_FAILURE_TEXT
        assert "ValueError" in failure.error

    def test_default_bound_is_sane(self):
        from repro.dist.queue import MAX_FAILURE_TEXT

        assert 1_000 <= MAX_FAILURE_TEXT <= 1_000_000


def _sleepy(item):
    time.sleep(float(item["duration"]))
    return item["index"]


class TestCostScheduling:
    """The broker's scheduler: LPT dispatch and sized leases.

    Every test here is about *when* jobs run, never *what* they
    return — the determinism matrix below pins down that the answers
    are bitwise the serial ones regardless.
    """

    def _trained_broker(self, unit_cost=0.1):
        """A broker whose model has observed ``unit_cost``/unit."""
        broker = Broker(lease_timeout=10.0)
        for _ in range(10):
            broker.cost_model.observe({"kind": "echo", "units": 1.0}, unit_cost)
        return broker

    @staticmethod
    def _features(units_list):
        return [{"kind": "echo", "units": float(u)} for u in units_list]

    @staticmethod
    def _drain(broker, worker_id):
        """Job indices in lease order, leasing until the queue is dry
        (call ``n`` leases as ``{worker_id}.{n}``)."""
        order = []
        for n in itertools.count():
            jobs = broker.lease_jobs(f"{worker_id}.{n}")
            if not jobs:
                return order
            order.extend(job_id[1] for job_id, _ in jobs)

    def test_cost_batch_dispatches_longest_first(self):
        broker = self._trained_broker()
        units = [1, 8, 2, 5]
        broker.submit(
            "b",
            [JobPayload(echo, i) for i in range(4)],
            features=self._features(units),
        )
        assert self._drain(broker, "w") == [1, 3, 2, 0]  # by descending units

    def test_mismatched_features_rejected_before_registering(self):
        broker = self._trained_broker()
        payloads = [JobPayload(echo, i) for i in range(3)]
        with pytest.raises(ReproError, match="1 feature entries for 3"):
            broker.submit("b", payloads, features=self._features([8]))
        assert broker.stats()["batches"] == 0
        # Nothing was registered, so the same batch id submits cleanly.
        assert broker.submit(
            "b", payloads, features=self._features([1, 8, 2])
        ) == 3
        assert self._drain(broker, "w") == [1, 2, 0]
        assert broker.submit("c", payloads, features=None) == 3
        assert broker.stats()["batches"] == 2

    def test_cold_start_cost_order_equals_fifo(self):
        # No observations, identical features: predictions tie, the
        # stable sort keeps submission order — exactly FIFO.
        broker = Broker(lease_timeout=10.0)
        broker.submit(
            "b",
            [JobPayload(echo, i) for i in range(5)],
            features=self._features([1, 1, 1, 1, 1]),
        )
        assert self._drain(broker, "w") == [0, 1, 2, 3, 4]

    def test_cold_jobs_lease_alone_until_observed(self):
        # A cold batch: unit-less features of one kind.  Bulk-leasing
        # it would pin all ten jobs to the first worker.
        broker = Broker(lease_timeout=10.0)
        features = [{"kind": "run_block", "units": 1.0}] * 10
        broker.submit(
            "b", [JobPayload(echo, i) for i in range(10)], features=features
        )
        (first, _), = broker.lease_jobs("w1")
        (second, _), = broker.lease_jobs("w2")
        assert (first, second) == (("b", 0), ("b", 1))
        # The first completion trains the model: the rest of the batch
        # is now cheap and known, so it leases in bulk.
        broker.complete_many("w1", [(first, 0, 0.01)])
        lease = broker.lease_jobs("w1")
        assert [job_id[1] for job_id, _ in lease] == list(range(2, 10))

    def test_observed_kind_must_match_the_scenario(self):
        # A rate learnt on one scenario says nothing about another.
        broker = Broker(lease_timeout=10.0)
        broker.cost_model.observe(
            {"kind": "run_block", "scenario": "amba", "units": 1.0}, 0.01
        )
        features = [
            {"kind": "run_block", "scenario": scenario, "units": 1.0}
            for scenario in ("fig1", "fig1", "amba", "amba")
        ]
        broker.submit(
            "b", [JobPayload(echo, i) for i in range(4)], features=features
        )
        assert self._drain(broker, "w") == [0, 1, 2, 3]
        stats = broker.stats()
        assert stats["lease_grants"] == 3  # fig1 alone twice, amba in bulk
        assert stats["lease_jobs"] == 4

    def test_cheap_jobs_lease_in_bulk_and_pinned(self):
        # unit cost 0.1, lease target 0.5 -> five 1-unit jobs per lease.
        broker = self._trained_broker(unit_cost=0.1)
        broker.submit(
            "b",
            [JobPayload(echo, i) for i in range(8)],
            features=self._features([1] * 8),
        )
        lease = broker.lease_jobs("w1")
        assert len(lease) == 5
        # Leased jobs are started: an idle peer gets only the rest.
        tail = broker.lease_jobs("w2")
        assert [job_id[1] for job_id, _ in tail] == [5, 6, 7]
        assert broker.lease_jobs("w3") == []

    def test_long_job_leases_alone_unpinned(self):
        broker = self._trained_broker(unit_cost=0.1)
        broker.submit(
            "b",
            [JobPayload(echo, i) for i in range(3)],
            features=self._features([50, 1, 1]),
        )
        lease = broker.lease_jobs("w1")
        # Predicted 5 s, past the target: it leases alone.
        assert [job_id for job_id, _ in lease] == [("b", 0)]
        # The cheap tail leases in bulk to the next worker.
        tail = broker.lease_jobs("w2")
        assert [job_id[1] for job_id, _ in tail] == [1, 2]

    def test_cold_replicate_spreads_over_two_workers(self, server):
        # One amba cell, its ten replications in ten blocks.
        matrix = dict(budgets=[12], replications=10, duration=2000.0)
        workers = [_start_worker(server.address) for _ in range(2)]
        try:
            # Both workers long-poll before the cell lands; its blocks
            # are cold, so each leases alone and each worker takes one.
            deadline = time.monotonic() + 30
            while server.broker.stats()["workers"] < 2:
                assert time.monotonic() < deadline, "workers never leased"
                time.sleep(0.02)
            executor = DistExecutor(server.address, timeout=120)
            distributed = run_matrix(["amba"], executor=executor, **matrix)
            fleet = server.broker.obs_snapshot()["workers"]
        finally:
            for worker in workers:
                worker.terminate()
        assert len(fleet) == 2
        assert all(
            record["counters"].get("worker.jobs", 0) > 0
            for record in fleet.values()
        )
        serial = run_matrix(["amba"], **matrix)
        assert distributed.to_jsonable() == serial.to_jsonable()


class TestBatchedTransport:
    def test_complete_many_is_idempotent_under_replay(self):
        broker = Broker(lease_timeout=10.0)
        broker.submit("b", [JobPayload(echo, i) for i in range(3)])
        leased = _lease_each(broker, "w", 3)
        batch = [
            (job_id, payload.item, 0.01) for job_id, payload in leased
        ]
        broker.complete_many("w", batch)
        # The reconnect scenario: the worker cannot know whether the
        # first upload landed, so it replays the whole outbox.
        broker.complete_many("w", batch)
        stats = broker.stats()
        assert stats["completed"] == 3  # each result counted once
        assert stats["batched_uploads"] == 2
        assert stats["batched_jobs"] == 6
        assert broker.fetch_ready("b", 0) == [0, 1, 2]

    def test_worker_ships_batched_uploads(self, server):
        worker = _start_worker(server.address)
        try:
            executor = DistExecutor(server.address, timeout=60)
            items = list(range(12))
            assert executor.map(_double, items) == [2 * x for x in items]
            stats = server.broker.stats()
            assert stats["batched_uploads"] >= 1
            assert stats["batched_jobs"] >= len(items)
        finally:
            worker.terminate()

    @staticmethod
    def _nodelay(conn):
        import os
        import socket

        with socket.socket(fileno=os.dup(conn.fileno())) as raw:
            return (
                raw.getsockname(),
                raw.getpeername(),
                raw.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY),
            )

    def test_both_ends_of_a_broker_connection_set_nodelay(self, server):
        from repro.dist import connect

        connection = connect(server.address)
        connection.broker.config()  # the server thread set its end
        local, _, client_nodelay = self._nodelay(connection._conn)
        with server._lock:
            accepted = list(server._clients)
        server_nodelay = [
            nodelay
            for _, peer, nodelay in map(self._nodelay, accepted)
            if peer == local
        ]
        assert client_nodelay == 1
        assert server_nodelay == [1]

    def test_large_cache_gets_do_not_stall(self, server):
        from repro.dist import connect

        # Over the 16 KiB at which multiprocessing.connection writes a
        # header and a separate body: with Nagle on, each round trip
        # waits ~40 ms on the peer's delayed ACK.
        blob = b"x" * (24 * 1024)
        server.broker.cache_put("k-24k", blob)
        proxy = connect(server.address).broker
        proxy.config()
        start = time.perf_counter()
        for _ in range(20):
            assert proxy.cache_get("k-24k") == blob
        assert time.perf_counter() - start < 0.4


class TestBrokerWire:
    """The broker's own RPC layer: one socket, public methods only."""

    def test_one_connect_is_one_tcp_connection(self, monkeypatch):
        import socket

        from repro.dist import connect

        accepted = []
        accept = socket.socket.accept

        def counting_accept(sock):
            pair = accept(sock)
            accepted.append(pair[1])
            return pair

        monkeypatch.setattr(socket.socket, "accept", counting_accept)
        server = BrokerServer(
            port=0, lease_timeout=LEASE_TIMEOUT
        ).start_in_thread()
        try:
            connect(server.address).broker.config()
            assert len(accepted) == 1
        finally:
            server.stop()

    def test_only_public_broker_methods_are_callable(self, server):
        from repro.dist import connect

        server.broker.submit("b", [JobPayload(echo, 0)])
        before = server.broker.stats()
        proxy = connect(server.address).broker
        for name, args in (
            ("_reap", ()),
            ("_drop_batch", ("b",)),
            ("__init__", ()),
            ("no_such_method", ()),
        ):
            with pytest.raises(ReproError, match="not a public Broker"):
                proxy._call(name, *args)
        assert server.broker.stats() == before
        assert proxy.stats() == before  # the connection still works

    def test_broker_errors_reraise_on_the_client(self, server):
        from repro.dist import connect

        proxy = connect(server.address).broker
        with pytest.raises(ReproError, match="no-such-batch"):
            proxy.fetch_ready("no-such-batch", 0)
        assert proxy.stats()["batches"] == 0

    def test_a_map_that_reconnects_still_drops_its_batch(self, server):
        # Job 0 finishes first, so the map fetches again after the
        # socket under it closed: it must reconnect, finish, and drop
        # the batch through the new connection.
        worker = _start_worker(server.address)
        try:
            executor = DistExecutor(server.address, timeout=60)
            items = [{"index": 0, "duration": 0.0}] + [
                {"index": i, "duration": 0.05} for i in range(1, 6)
            ]

            def close_socket(index, result):
                if index == 0:
                    executor._connection.close()

            assert executor.map(_sleepy, items, on_result=close_socket) == (
                list(range(6))
            )
            assert server.broker.stats()["batches"] == 0
        finally:
            worker.terminate()


class _QuietThenDone:
    """Fake broker: ``quiet_polls`` unanswered long polls, then every
    result.  It waits with an ``Event``, so a patched-out
    ``time.sleep`` cannot hide a wait."""

    def __init__(self, quiet_polls=float("inf"), workers=1):
        self.quiet_polls = quiet_polls
        self.workers = workers
        self.waits = []
        self.total = 0

    def submit(self, batch_id, payloads, features=None):
        self.total = len(payloads)

    def fetch_ready(self, batch_id, start, wait=0.0):
        self.waits.append(wait)
        if len(self.waits) <= self.quiet_polls:
            threading.Event().wait(wait)
            return []
        return list(range(start, self.total))

    def batch_status(self, batch_id):
        return (0, self.total)

    def stats(self):
        return {"workers": self.workers}

    def drop_batch(self, batch_id):
        pass


class TestLongPollDriver:
    def test_map_never_sleeps_and_still_enforces_its_bounds(
        self, monkeypatch
    ):
        from repro.dist import executor as executor_module
        from repro.dist.queue import LONG_POLL_WAIT

        def _no_sleep(seconds):
            raise AssertionError(f"the map loop slept {seconds}s")

        monkeypatch.setattr(executor_module.time, "sleep", _no_sleep)
        # Quiet, then done: each quiet iteration is one long poll.
        executor = DistExecutor("127.0.0.1:1", timeout=60)
        fake = _QuietThenDone(quiet_polls=1)
        _plant_fake_broker(executor, fake)
        assert executor.map(echo, [0, 1]) == [0, 1]
        assert fake.waits == [LONG_POLL_WAIT, LONG_POLL_WAIT]
        # The overall timeout fires, and no wait outlasts it.
        executor = DistExecutor("127.0.0.1:1", timeout=0.3)
        fake = _QuietThenDone()
        _plant_fake_broker(executor, fake)
        start = time.monotonic()
        with pytest.raises(ReproError, match="timed out"):
            executor.map(echo, [0, 1])
        assert time.monotonic() - start < 1.0
        assert max(fake.waits) <= 0.3
        # A fleet with no live worker fails after the grace period.
        monkeypatch.setattr(executor_module, "NO_WORKER_GRACE", 0.2)
        executor = DistExecutor("127.0.0.1:1")
        _plant_fake_broker(executor, _QuietThenDone(workers=0))
        with pytest.raises(ReproError, match="no live workers"):
            executor.map(echo, [0, 1])

    @pytest.mark.parametrize(
        "workers,cause",
        [
            (0, "is a 'repro dist worker' connected?"),
            (2, "the live workers did not finish within --timeout"),
        ],
    )
    def test_timeout_names_the_cause_by_live_workers(self, workers, cause):
        executor = DistExecutor("127.0.0.1:1", timeout=0.2)
        _plant_fake_broker(executor, _QuietThenDone(workers=workers))
        with pytest.raises(ReproError) as excinfo:
            executor.map(echo, [0, 1])
        message = str(excinfo.value)
        assert f"({workers} live worker(s)); {cause}" in message
        assert ("connected?" in message) == (workers == 0)


class TestCoalescedBlocks:
    """One mega-batch block per leased cell: ``run_blocks``, and the
    worker's groups of leased ``run_block`` jobs."""

    @pytest.fixture()
    def memo(self):
        from repro.dist import jobs as dist_jobs

        previous = dist_jobs.set_active_cache(dist_jobs.ProcessMemo())
        yield
        dist_jobs.set_active_cache(previous)

    @pytest.mark.parametrize("lane", ["megabatch", "batched"])
    def test_run_blocks_equals_per_block_runs(self, memo, monkeypatch, lane):
        from repro.dist.jobs import run_blocks
        from repro.exec.cache import canonicalize

        if lane == "batched":
            # The counted no-kernel fallback: the batched lane per seed.
            monkeypatch.setenv("REPRO_SIM_CC", "0")
        payloads = build_matrix(
            ["amba", "single-bus-4"], budgets=[12], replications=3,
            duration=100.0,
        )
        # Two cells of three one-replication blocks each, one call each.
        cells = [payloads[:3], payloads[3:]]
        assert [p["stop"] - p["start"] for p in payloads] == [1] * 6
        assert canonicalize(
            [outcome for cell in cells for outcome in run_blocks(cell)]
        ) == canonicalize([run_block(p) for p in payloads])
        with pytest.raises(ReproError):
            run_blocks(payloads)

    @staticmethod
    def _run_one_lease(broker, payloads, costs):
        """Submit ``run_block`` payloads as one bulk lease (the model
        has observed each job's cost); returns every result."""
        from repro.dist import job_features

        features = [job_features(run_block, p) for p in payloads]
        for feature, cost in zip(features, costs):
            broker.cost_model.observe(feature, cost)
        broker.submit(
            "b", [JobPayload(run_block, p) for p in payloads],
            features=features,
        )
        results = []
        deadline = time.monotonic() + 60
        while len(results) < len(payloads):
            assert time.monotonic() < deadline, "fleet never finished"
            results.extend(broker.fetch_ready("b", len(results), wait=0.5))
        assert broker.stats()["lease_grants"] == 1
        return results

    def test_a_failing_block_falls_back_to_per_job_runs(self, server, memo):
        from repro.dist import JobFailure
        from repro.exec.cache import canonicalize

        payloads = build_matrix(
            ["amba"], budgets=[12], replications=3, duration=100.0
        )
        # Same cell, but a replication the cell does not have.
        payloads.insert(2, dict(payloads[0], start=3, stop=4))
        worker = _start_worker(server.address)
        try:
            results = self._run_one_lease(
                server.broker, payloads, [0.001] * len(payloads)
            )
        finally:
            worker.terminate()
        assert isinstance(results[2], JobFailure)
        assert "IndexError" in results[2].error
        del results[2], payloads[2]
        assert canonicalize(results) == canonicalize(
            [run_block(p) for p in payloads]
        )
        counters = server.broker.obs_snapshot()["fleet"]["counters"]
        assert counters["worker.group_fallbacks"] == 1
        assert counters["worker.jobs"] == 4
        assert counters["worker.jobs_failed"] == 1

    def test_execute_hook_fires_once_per_job_in_lease_order(
        self, server, tmp_path, monkeypatch
    ):
        import ast

        from repro.faults import FaultEvent, FaultPlan
        from repro.faults.injector import ENV_VAR

        log = tmp_path / "faults.log"
        plan = FaultPlan(
            events=(
                FaultEvent(
                    "worker_slow", "worker.execute", count=-1,
                    args={"seconds": 0.0},
                ),
            ),
            name="log-every-execute",
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        monkeypatch.setenv("REPRO_FAULT_LOG", str(log))
        granted = []
        lease_jobs = server.broker.lease_jobs

        def recording_lease_jobs(*args, **kwargs):
            lease = lease_jobs(*args, **kwargs)
            granted.extend(job_id for job_id, _ in lease)
            return lease

        monkeypatch.setattr(server.broker, "lease_jobs", recording_lease_jobs)
        payloads = build_matrix(
            ["amba"], budgets=[12, 16], replications=2, duration=100.0
        )
        worker = _start_worker(server.address)
        try:
            # The budget-16 cell costs more, so it leases first: lease
            # order is not submission order.
            self._run_one_lease(
                server.broker, payloads, [0.001, 0.001, 0.002, 0.002]
            )
        finally:
            worker.terminate()
        fired = [
            ast.literal_eval(token.split("=", 1)[1])
            for line in log.read_text().splitlines()
            for token in line.split()
            if token.startswith("job_id=")
        ]
        assert granted == [("b", 2), ("b", 3), ("b", 0), ("b", 1)]
        assert fired == granted

    def test_fleet_matrix_with_pinned_leases_equals_serial(self, server):
        matrix = dict(budgets=[12], replications=6, duration=100.0)
        worker = _start_worker(server.address)
        try:
            executor = DistExecutor(server.address, timeout=240)
            fleet = run_matrix(
                ["amba", "single-bus-4"], executor=executor, **matrix
            )
        finally:
            worker.terminate()
        stats = server.broker.stats()
        assert stats["lease_jobs"] > stats["lease_grants"]  # bulk leases
        serial = run_matrix(["amba", "single-bus-4"], **matrix)
        assert fleet.to_jsonable() == serial.to_jsonable()


class TestCostDeterminismMatrix:
    """Cost scheduling cannot change a single bit of any result."""

    MATRIX = dict(budgets=[8, 16], replications=2, duration=100.0)

    @pytest.mark.parametrize("lane", ["batched", "megabatch"])
    def test_cost_fifo_serial_identical_under_worker_death(
        self, server, monkeypatch, lane
    ):
        # The first pass meets a cold model, which dispatches in
        # arrival (FIFO) order with one job per lease; a worker dies
        # during it.  The second pass runs warm: cost order and bulk
        # leases.
        if lane == "batched":
            # The counted no-kernel fallback, in the driver and in the
            # forked workers alike.
            monkeypatch.setenv("REPRO_SIM_CC", "0")
        serial = run_matrix(["single-bus-4"], jobs=1, **self.MATRIX)
        workers = [_start_worker(server.address) for _ in range(2)]
        killer = threading.Timer(0.4, workers[0].kill)
        killer.start()
        try:
            executor = DistExecutor(server.address, timeout=240)
            cold = run_matrix(
                ["single-bus-4"], executor=executor, **self.MATRIX
            )
            warm = run_matrix(
                ["single-bus-4"], executor=executor, **self.MATRIX
            )
        finally:
            killer.cancel()
            for worker in workers:
                worker.terminate()
        assert cold.to_jsonable() == serial.to_jsonable()
        assert warm.to_jsonable() == serial.to_jsonable()

    def test_cost_schedule_with_steals_matches_serial_map(self, server):
        # Skewed sleeps + two workers: the second worker drains the
        # cheap tail while the first grinds the long job the LPT order
        # put first.
        workers = [_start_worker(server.address) for _ in range(2)]
        try:
            executor = DistExecutor(server.address, timeout=60)
            items = [
                {"index": i, "duration": 0.2 if i == 7 else 0.01}
                for i in range(8)
            ]
            # Warm the model so the cost path actually reorders.
            executor.map(_sleepy, items)
            assert executor.map(_sleepy, items) == list(range(8))
        finally:
            for worker in workers:
                worker.terminate()
