"""Tests for repro.exec — the experiment-execution runtime.

Covers the three determinism/equivalence contracts the runtime makes:

* ``jobs=N`` replication batches are bitwise-identical to ``jobs=1``;
* warm-started budget sweeps produce the same allocations as cold
  per-budget solves, in fewer total fixed-point iterations;
* the content-addressed cache hits on identical configurations and
  misses on any config or code-version change.
"""

import pickle

import pytest

from repro import _version
from repro.arch.templates import amba_like, coreconnect_like, paper_figure1
from repro.core.sizing import BufferSizer
from repro.errors import ReproError, SimulationError
from repro.exec import ExecutionContext
from repro.exec.cache import (
    ResultCache,
    canonicalize,
    stable_hash,
    topology_fingerprint,
)
from repro.exec.pool import parallel_map, resolve_jobs
from repro.exec.sweeps import sweep_budgets
from repro.sim.runner import replicate, replication_seeds


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestPool:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(SimulationError):
            resolve_jobs(-2)

    def test_serial_pooled_identical(self):
        items = list(range(20))
        serial = parallel_map(_square, items, jobs=1)
        pooled = parallel_map(_square, items, jobs=2)
        assert serial == [x * x for x in items]
        assert pooled == serial

    def test_order_preserved_with_chunking(self):
        items = list(range(37))
        assert parallel_map(_square, items, jobs=3) == [
            x * x for x in items
        ]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_raise_on_three, [1, 2, 3, 4], jobs=2)


class TestSeedSchemes:
    def test_legacy_is_the_historical_formula(self):
        assert replication_seeds(5, base_seed=7) == [
            7 + 1000 * r for r in range(5)
        ]

    def test_legacy_collides_across_nearby_batches(self):
        # The defect the spawn scheme fixes: replication 1 of batch 0 is
        # replication 0 of batch 1000.
        batch_a = replication_seeds(2, base_seed=0)
        batch_b = replication_seeds(2, base_seed=1000)
        assert batch_a[1] == batch_b[0]

    def test_spawn_unique_across_replications_and_batches(self):
        seeds = set()
        for base in range(6):
            batch = replication_seeds(50, base_seed=base, scheme="spawn")
            seeds.update(batch)
        assert len(seeds) == 6 * 50

    def test_spawn_deterministic(self):
        assert replication_seeds(8, 3, "spawn") == replication_seeds(
            8, 3, "spawn"
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SimulationError):
            replication_seeds(2, scheme="quantum")

    def test_bad_replications_rejected(self):
        with pytest.raises(SimulationError):
            replication_seeds(0)


@pytest.fixture(scope="module")
def amba():
    return amba_like()


@pytest.fixture(scope="module")
def amba_caps(amba):
    return {name: 3 for name in amba.processors}


class TestParallelReplicate:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arbiter_kind": "longest_queue"},
            {"arbiter_kind": "fixed_priority"},
            {"arbiter_kind": "round_robin"},
            {"arbiter_kind": "weighted_random"},
            {"arbiter_kind": "longest_queue", "timeout_threshold": 1.5},
            {"arbiter_kind": "longest_queue", "warmup": 50.0},
        ],
        ids=[
            "longest_queue",
            "fixed_priority",
            "round_robin",
            "weighted_random",
            "timeout",
            "warmup",
        ],
    )
    def test_pooled_bitwise_identical(self, amba, amba_caps, kwargs):
        serial = replicate(
            amba, amba_caps, replications=3, duration=200.0, jobs=1, **kwargs
        )
        pooled = replicate(
            amba, amba_caps, replications=3, duration=200.0, jobs=2, **kwargs
        )
        assert serial.results == pooled.results

    def test_spawn_scheme_pooled_identical(self, amba, amba_caps):
        serial = replicate(
            amba, amba_caps, replications=4, duration=150.0,
            jobs=1, seed_scheme="spawn",
        )
        pooled = replicate(
            amba, amba_caps, replications=4, duration=150.0,
            jobs=2, seed_scheme="spawn",
        )
        assert serial.results == pooled.results

    def test_spawn_differs_from_legacy(self, amba, amba_caps):
        legacy = replicate(amba, amba_caps, replications=3, duration=150.0)
        spawn = replicate(
            amba, amba_caps, replications=3, duration=150.0,
            seed_scheme="spawn",
        )
        assert legacy.results != spawn.results


class TestCanonicalize:
    def test_scalars_and_containers(self):
        tree = {"b": (1, 2), "a": {3, 1}, "c": None}
        assert canonicalize(tree) == {"b": [1, 2], "a": [1, 3], "c": None}

    def test_dataclass_tagged_with_type(self, amba):
        traffic = next(iter(amba.flows.values())).traffic
        out = canonicalize(traffic)
        assert out["__type__"] == type(traffic).__name__

    def test_unhashable_object_rejected(self):
        with pytest.raises(ReproError):
            canonicalize(object())

    def test_stable_hash_key_order_independent(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_topology_fingerprint_stable_across_builds(self, amba):
        fp = stable_hash(topology_fingerprint(amba))
        other = amba_like()
        assert stable_hash(topology_fingerprint(other)) == fp

    def test_topology_fingerprint_sensitive_to_rates(self, amba):
        from repro.arch.topology import Topology

        fp = stable_hash(topology_fingerprint(amba))
        perturbed = Topology(amba.name)
        for bus in amba.buses.values():
            perturbed.add_bus(bus.name)
        for link in amba.links:
            perturbed.add_link(link.bus_a, link.bus_b)
        for bridge in amba.bridges.values():
            perturbed.add_bridge(
                bridge.name, bridge.bus_a, bridge.bus_b,
                service_rate=bridge.service_rate,
                loss_weight=bridge.loss_weight,
            )
        for i, proc in enumerate(amba.processors.values()):
            perturbed.add_processor(
                proc.name, proc.bus,
                # Bump one processor's service rate; everything else
                # identical — the hash must move.
                proc.service_rate * (1.001 if i == 0 else 1.0),
                proc.loss_weight,
            )
        for flow in amba.flows.values():
            perturbed.add_flow(
                flow.name, flow.source, flow.destination, flow.traffic
            )
        assert stable_hash(topology_fingerprint(perturbed)) != fp

    def test_topology_fingerprint_sensitive_to_traffic(self, amba):
        fp = stable_hash(topology_fingerprint(amba))
        scaled = amba_like()
        name, flow = next(iter(scaled.flows.items()))
        scaled.flows[name] = type(flow)(
            name=flow.name,
            source=flow.source,
            destination=flow.destination,
            traffic=flow.traffic.scaled(1.01),
        )
        assert stable_hash(topology_fingerprint(scaled)) != fp


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("thing", {"x": 1})
        assert cache.get(key) == (False, None)
        cache.put(key, {"value": [1.5, 2.5]})
        hit, value = cache.get(key)
        assert hit and value == {"value": [1.5, 2.5]}

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key("thing", {"x": 1}) != cache.key("thing", {"x": 2})
        assert cache.key("thing", {"x": 1}) != cache.key("other", {"x": 1})

    def test_code_version_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        key_now = cache.key("thing", {"x": 1})
        monkeypatch.setattr(_version, "__version__", "999.0.0")
        assert cache.key("thing", {"x": 1}) != key_now

    def test_fetch_memoises(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.fetch("k", {"a": 1}, compute) == 42
        assert cache.fetch("k", {"a": 1}, compute) == 42
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("thing", {"x": 1})
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit


class TestCacheEviction:
    """Size-bounded LRU eviction (max_bytes / --cache-max-mb)."""

    @staticmethod
    def _fill(cache, keys, payload=b"x" * 800):
        import os

        for age, key in enumerate(keys):
            cache.put(key, payload)
            # Pin distinct, increasing mtimes so LRU order is explicit
            # regardless of filesystem timestamp granularity.
            os.utime(cache.path_for(key), (age + 1, age + 1))

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [cache.key("k", {"i": i}) for i in range(8)]
        self._fill(cache, keys)
        assert len(cache.entry_paths()) == 8
        assert cache.evictions == 0

    def test_evicts_oldest_first_and_respects_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=4000)
        keys = [cache.key("k", {"i": i}) for i in range(8)]
        self._fill(cache, keys)
        newest = cache.key("k", {"i": "new"})
        cache.put(newest, b"y" * 800)
        assert cache.total_bytes() <= 4000
        assert cache.evictions > 0
        survivors = {p.name for p in cache.entry_paths()}
        # The oldest entries are the ones that went.
        assert f"{keys[0]}.pkl" not in survivors
        assert f"{keys[1]}.pkl" not in survivors
        assert f"{newest}.pkl" in survivors

    def test_hit_refreshes_recency(self, tmp_path):
        import os

        cache = ResultCache(tmp_path, max_bytes=3000)
        keys = [cache.key("k", {"i": i}) for i in range(3)]
        self._fill(cache, keys)
        # Touch the oldest through a hit; it must outlive a later
        # eviction wave that claims the (now) least recently used key.
        hit, _ = cache.get(keys[0])
        assert hit
        os.utime(cache.path_for(keys[0]), (100, 100))
        cache.put(cache.key("k", {"i": "more"}), b"z" * 2000)
        survivors = {p.name for p in cache.entry_paths()}
        assert f"{keys[0]}.pkl" in survivors
        assert f"{keys[1]}.pkl" not in survivors

    def test_entry_corrupted_after_footprint_scan_self_heals(
        self, tmp_path
    ):
        # Bit rot after the cache has already scanned its footprint:
        # the read must quarantine (not unpickle damaged bytes), count
        # a miss, and the next put of the key heals the entry while
        # the footprint bookkeeping stays consistent.
        cache = ResultCache(tmp_path, max_bytes=50_000)
        key = cache.key("k", {"i": "rot"})
        cache.put(key, {"v": 1})  # seeds the footprint estimate
        assert cache._approx_bytes is not None
        path = cache.path_for(key)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

        hit, _ = cache.get(key)
        assert not hit
        assert cache.quarantined == 1
        assert [p.suffix for p in cache.quarantined_paths()] == [
            ".quarantined"
        ]
        assert cache.entry_paths() == []  # out of the hit namespace
        cache.put(key, {"v": 1})  # self-heal
        assert cache.get(key) == (True, {"v": 1})
        # Quarantined bytes are kept for forensics but never count
        # toward the entry footprint.
        assert cache.total_bytes() == path.stat().st_size

    def test_corrupt_entries_evict_like_any_other(self, tmp_path):
        import os

        cache = ResultCache(tmp_path, max_bytes=1500)
        key = cache.key("k", {"i": 0})
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"garbage" * 100)
        os.utime(path, (1, 1))
        hit, _ = cache.get(key)
        assert not hit  # corrupt reads stay misses
        fresh = cache.key("k", {"i": 1})
        cache.put(fresh, b"v" * 1200)
        survivors = {p.name for p in cache.entry_paths()}
        assert f"{key}.pkl" not in survivors
        assert f"{fresh}.pkl" in survivors

    def test_fetch_still_works_under_eviction_pressure(self, tmp_path):
        # A bound smaller than one entry disables persistence but must
        # never break fetch(): every call recomputes.
        cache = ResultCache(tmp_path, max_bytes=10)
        calls = []

        def compute():
            calls.append(1)
            return list(range(100))

        assert cache.fetch("k", {"a": 1}, compute) == list(range(100))
        assert cache.fetch("k", {"a": 1}, compute) == list(range(100))
        assert len(calls) == 2
        assert cache.total_bytes() <= 10

    def test_negative_bound_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            ResultCache(tmp_path, max_bytes=-1)

    def test_create_requires_cache_dir_for_bound(self):
        with pytest.raises(ReproError, match="cache directory"):
            ExecutionContext.create(cache_max_mb=1.0)

    def test_create_wires_bound_in_mib(self, tmp_path):
        context = ExecutionContext.create(
            cache_dir=tmp_path, cache_max_mb=2.5
        )
        assert context.cache.max_bytes == int(2.5 * 1024 * 1024)


class TestOnePath:
    def test_no_entry_point_takes_a_selector(self):
        """Simulation and sizing each run one path: no entry point, and
        no CLI subcommand, chooses an engine."""
        import argparse
        import inspect

        from repro.cli import build_parser
        from repro.core.dp import policy_iteration, relative_value_iteration
        from repro.dist import build_matrix, run_matrix
        from repro.faults.chaos import run_chaos_matrix
        from repro.policies.timeout import calibrate_timeout_threshold
        from repro.sim.runner import simulate

        selectors = {"backend", "sim_backend", "use_compiled"}
        for fn in (
            simulate,
            replicate,
            calibrate_timeout_threshold,
            ExecutionContext,
            ExecutionContext.create,
            build_matrix,
            run_matrix,
            run_chaos_matrix,
            BufferSizer,
            relative_value_iteration,
            policy_iteration,
        ):
            params = set(inspect.signature(fn).parameters)
            assert not params & selectors, fn

        def dests(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from dests(sub)
                else:
                    yield action.dest

        assert "sim_backend" not in set(dests(build_parser()))


class TestExecutionContext:
    def test_replicate_cached_across_calls(self, tmp_path, amba, amba_caps):
        context = ExecutionContext.create(jobs=1, cache_dir=tmp_path)
        first = context.replicate(
            amba, amba_caps, replications=2, duration=150.0
        )
        second = context.replicate(
            amba, amba_caps, replications=2, duration=150.0
        )
        assert context.cache.hits == 1
        assert first.results == second.results
        # A config change must recompute, not hit.
        context.replicate(amba, amba_caps, replications=2, duration=151.0)
        assert context.cache.misses == 2

    def test_size_cached(self, tmp_path, amba):
        context = ExecutionContext.create(cache_dir=tmp_path)
        first = context.size(amba, 12)
        second = context.size(amba, 12)
        assert context.cache.hits == 1
        assert first.allocation.sizes == second.allocation.sizes

    def test_size_explicit_defaults_share_cache_entry(self, tmp_path, amba):
        context = ExecutionContext.create(cache_dir=tmp_path)
        context.size(amba, 12)
        context.size(amba, 12, sizer_kwargs={"damping": 1.0})
        assert context.cache.hits == 1

    def test_jobs_do_not_affect_cache_key(self, tmp_path, amba, amba_caps):
        serial = ExecutionContext.create(jobs=1, cache_dir=tmp_path)
        serial.replicate(amba, amba_caps, replications=2, duration=150.0)
        pooled = ExecutionContext.create(jobs=2, cache_dir=tmp_path)
        pooled.replicate(amba, amba_caps, replications=2, duration=150.0)
        assert pooled.cache.hits == 1

    def test_explicit_defaults_share_cache_entry(
        self, tmp_path, amba, amba_caps
    ):
        # Spelling out a default (as the CLI does) and omitting it (as
        # compare_policies does) must address the same entry.
        context = ExecutionContext.create(cache_dir=tmp_path)
        context.replicate(amba, amba_caps, replications=2, duration=150.0)
        context.replicate(
            amba, amba_caps, replications=2, duration=150.0,
            seed_scheme="legacy", arbiter_kind="longest_queue",
            timeout_threshold=None, warmup=0.0,
        )
        assert context.cache.hits == 1

    def test_non_converged_sizing_never_cached(self, tmp_path):
        # One outer iteration cannot converge fig1's bridge fixed point,
        # so the start-dependent result must be recomputed every time.
        topo = paper_figure1()
        context = ExecutionContext.create(cache_dir=tmp_path)
        kwargs = {"max_fixed_point_iterations": 1}
        first = context.size(topo, 16, sizer_kwargs=kwargs)
        assert not first.converged
        context.size(topo, 16, sizer_kwargs=kwargs)
        assert context.cache.hits == 0
        assert context.cache.misses == 2


class TestWarmSweeps:
    BUDGETS = (14, 16, 18, 20, 22, 24)

    @pytest.fixture(scope="class")
    def fig1(self):
        return paper_figure1()

    @pytest.fixture(scope="class")
    def cold(self, fig1):
        return sweep_budgets(fig1, self.BUDGETS, warm_start=False)

    @pytest.fixture(scope="class")
    def warm(self, fig1):
        return sweep_budgets(fig1, self.BUDGETS, warm_start=True)

    def test_allocations_equal_cold(self, cold, warm):
        assert warm.allocations() == cold.allocations()

    def test_warm_reduces_total_iterations(self, cold, warm):
        assert (
            warm.total_fixed_point_iterations
            < cold.total_fixed_point_iterations
        )

    def test_warm_flags(self, cold, warm):
        assert [p.warm_started for p in warm.points] == [
            False, True, True, True, True, True,
        ]
        assert not any(p.warm_started for p in cold.points)

    def test_budgets_match_cold_single_solves(self, fig1, warm):
        for budget in (14, 24):
            cold_result = BufferSizer(total_budget=budget).size(fig1)
            assert (
                warm.result_for(budget).allocation.sizes
                == cold_result.allocation.sizes
            )

    def test_fixed_cap_keeps_structure_for_basis_reuse(self):
        topo = coreconnect_like()
        budgets = (12, 14, 16, 18, 20)
        kwargs = {"capacity_cap": 4}
        cold = sweep_budgets(topo, budgets, kwargs, warm_start=False)
        warm = sweep_budgets(topo, budgets, kwargs, warm_start=True)
        assert warm.allocations() == cold.allocations()
        assert (
            warm.total_fixed_point_iterations
            <= cold.total_fixed_point_iterations
        )

    def test_parallel_cold_sweep_matches_serial(self, fig1, cold):
        pooled = sweep_budgets(fig1, self.BUDGETS, warm_start=False, jobs=2)
        assert pooled.allocations() == cold.allocations()

    def test_cache_short_circuits_second_sweep(self, tmp_path, fig1):
        cache = ResultCache(tmp_path)
        first = sweep_budgets(fig1, (14, 16), cache=cache)
        second = sweep_budgets(fig1, (14, 16), cache=cache)
        assert all(not p.from_cache for p in first.points)
        assert all(p.from_cache for p in second.points)
        assert second.total_fixed_point_iterations == 0
        assert second.allocations() == first.allocations()

    def test_converged_flag_set(self, warm):
        assert all(p.result.converged for p in warm.points)

    def test_duplicate_budgets_solved_once(self, fig1):
        deduped = sweep_budgets(fig1, (14, 14, 16), warm_start=True)
        assert [p.budget for p in deduped.points] == [14, 14, 16]
        assert deduped.points[0].result is deduped.points[1].result
        single = sweep_budgets(fig1, (14, 16), warm_start=True)
        assert (
            deduped.total_fixed_point_iterations
            == single.total_fixed_point_iterations
        )

    def test_non_converged_sweep_points_not_cached(self, tmp_path, fig1):
        cache = ResultCache(tmp_path)
        kwargs = {"max_fixed_point_iterations": 1}
        first = sweep_budgets(fig1, (16,), kwargs, cache=cache)
        assert not first.points[0].result.converged
        second = sweep_budgets(fig1, (16,), kwargs, cache=cache)
        assert not second.points[0].from_cache

    def test_sizing_result_picklable(self, fig1, warm):
        blob = pickle.dumps(warm.result_for(14))
        assert pickle.loads(blob).allocation.sizes == warm.result_for(
            14
        ).allocation.sizes

    def test_empty_budgets_rejected(self, fig1):
        with pytest.raises(ReproError):
            sweep_budgets(fig1, ())

    def test_unknown_budget_rejected(self, warm):
        with pytest.raises(ReproError):
            warm.result_for(999)


# ----------------------------------------------------------------------
# Progress reporting (on_result / ExecutionContext.progress) and the
# pluggable-executor seam the distributed runtime uses.


class _RecordingExecutor:
    """Stub executor implementing the parallel_map executor protocol."""

    def __init__(self):
        self.maps = 0

    def map(self, fn, items, on_result=None):
        self.maps += 1
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results


class TestOnResult:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_map_fires_in_index_order(self, jobs):
        seen = []
        out = parallel_map(
            _square,
            range(9),
            jobs=jobs,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert out == [i * i for i in range(9)]
        assert seen == [(i, i * i) for i in range(9)]

    def test_replicate_streams_results_in_replication_order(
        self, amba, amba_caps
    ):
        seen = []
        summary = replicate(
            amba,
            amba_caps,
            replications=3,
            duration=150.0,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert [i for i, _ in seen] == [0, 1, 2]
        assert [r for _, r in seen] == summary.results

    def test_sweep_fires_per_budget_warm_cold_and_cached(
        self, tmp_path, amba
    ):
        budgets = [10, 12]
        warm_seen = []
        sweep_budgets(
            amba,
            budgets,
            warm_start=True,
            on_result=lambda b, r: warm_seen.append(b),
        )
        assert warm_seen == budgets
        cold_seen = []
        sweep_budgets(
            amba,
            budgets,
            warm_start=False,
            on_result=lambda b, r: cold_seen.append(b),
        )
        assert cold_seen == budgets
        # Cache hits report too — a fully cached sweep still streams
        # one event per unique budget.
        cache = ResultCache(tmp_path)
        sweep_budgets(amba, budgets, cache=cache)
        cached_seen = []
        sweep_budgets(
            amba,
            budgets,
            cache=cache,
            on_result=lambda b, r: cached_seen.append(b),
        )
        assert cached_seen == budgets


class TestContextProgressAndExecutor:
    def test_progress_events_replication_and_sizing(self, amba, amba_caps):
        events = []
        context = ExecutionContext(
            progress=lambda kind, key: events.append((kind, key))
        )
        context.replicate(amba, amba_caps, replications=2, duration=150.0)
        assert events == [("replication", 0), ("replication", 1)]
        events.clear()
        context.sweep(amba, [10, 12])
        assert events == [("sizing", 10), ("sizing", 12)]

    def test_explicit_on_result_wins_over_progress(self, amba, amba_caps):
        events, seen = [], []
        context = ExecutionContext(
            progress=lambda kind, key: events.append((kind, key))
        )
        context.replicate(
            amba,
            amba_caps,
            replications=2,
            duration=150.0,
            on_result=lambda i, r: seen.append(i),
        )
        assert seen == [0, 1]
        assert events == []

    def test_parallel_map_executor_replaces_pool(self):
        stub = _RecordingExecutor()
        assert parallel_map(
            _square, range(5), jobs=8, executor=stub
        ) == [i * i for i in range(5)]
        assert stub.maps == 1

    def test_context_executor_preserves_results(self, amba, amba_caps):
        stub = _RecordingExecutor()
        via_executor = ExecutionContext(executor=stub).replicate(
            amba, amba_caps, replications=2, duration=150.0
        )
        serial = ExecutionContext().replicate(
            amba, amba_caps, replications=2, duration=150.0
        )
        assert stub.maps == 1
        assert via_executor.results == serial.results

    def test_progress_and_executor_never_reach_cache_keys(
        self, tmp_path, amba, amba_caps
    ):
        import dataclasses

        observed = dataclasses.replace(
            ExecutionContext.create(
                cache_dir=tmp_path, progress=lambda kind, key: None
            ),
            executor=_RecordingExecutor(),
        )
        observed.replicate(amba, amba_caps, replications=2, duration=150.0)
        plain = ExecutionContext.create(cache_dir=tmp_path)
        plain.replicate(amba, amba_caps, replications=2, duration=150.0)
        assert plain.cache.hits == 1


# ----------------------------------------------------------------------
# Concurrent-writer safety of ResultCache (the shared-tier and parallel
# CI prerequisite): racing writers/evictors must never crash or corrupt.


def _cache_hammer(args):
    """Pool worker: hammer one shared cache directory with put/get/evict."""
    root, worker, rounds = args
    cache = ResultCache(root, max_bytes=4096)
    for i in range(rounds):
        key = cache.key("race", {"worker": worker, "i": i % 7})
        cache.put(key, list(range(50)))
        cache.lookup(key)
        # Read keys the *other* writers own, racing their evictions.
        cache.lookup(cache.key("race", {"worker": (worker + 1) % 4, "i": i % 7}))
    return cache.evictions


class TestCacheConcurrency:
    def test_racing_processes_never_crash_or_corrupt(self, tmp_path):
        # Four processes put/get/evict the same directory; any
        # unhandled FileNotFoundError (stat/unlink/open races) or a
        # torn entry read would propagate out of parallel_map.
        parallel_map(
            _cache_hammer,
            [(str(tmp_path), w, 40) for w in range(4)],
            jobs=4,
        )
        survivor = ResultCache(tmp_path, max_bytes=4096)
        key = survivor.key("race", {"post": True})
        survivor.put(key, "still works")
        assert survivor.lookup(key) == (True, "still works")

    def test_racing_threads_on_one_instance(self, tmp_path):
        # The broker serves one ResultCache from many connection
        # threads; eviction bookkeeping must be serialised.
        import threading

        cache = ResultCache(tmp_path, max_bytes=2048)
        errors = []

        def work(tid):
            try:
                for i in range(40):
                    key = cache.key("threads", {"tid": tid, "i": i % 5})
                    cache.put(key, b"x" * 200)
                    cache.lookup(key)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(tid,)) for tid in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # The bound is enforced once the racing writers settle.
        cache.put(cache.key("threads", {"final": True}), b"y")
        assert cache.total_bytes() <= 2048

    def test_eviction_tolerates_files_vanishing_underneath(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=200)
        for i in range(4):
            cache.put(cache.key("vanish", {"i": i}), b"z" * 120)
        # Another process "evicts" everything behind this instance's
        # back; the stale footprint estimate must correct itself
        # without raising on the vanished files.
        for path in cache.entry_paths():
            path.unlink()
        cache.put(cache.key("vanish", {"i": 99}), b"z" * 120)
        assert cache.lookup(cache.key("vanish", {"i": 99}))[0]


class TestCachedReplicateProgress:
    def test_cache_hit_still_streams_replication_events(
        self, tmp_path, amba, amba_caps
    ):
        events = []
        context = ExecutionContext.create(
            cache_dir=tmp_path,
            progress=lambda kind, key: events.append((kind, key)),
        )
        context.replicate(amba, amba_caps, replications=2, duration=150.0)
        first = list(events)
        events.clear()
        context.replicate(amba, amba_caps, replications=2, duration=150.0)
        # The second batch is a cache hit; observers still see one
        # event per replication (as sweep cache hits do), not silence.
        assert context.cache.hits == 1
        assert events == first == [("replication", 0), ("replication", 1)]
