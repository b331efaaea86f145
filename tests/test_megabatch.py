"""Tests for the mega-batch replication kernel (``simulate_block``).

The lane's whole value rests on one claim: stacking ``R`` replications
into one array program changes *nothing* about the numbers.  So the
suite is mostly equality matrices — the C kernel vs batched vs heap
across scenarios, arbiters, timeout and warmup, including horizons
long enough to cross the kernel's pause-and-refill path; serial vs
``jobs=N`` vs distributed merges — plus the supporting contracts:
argument validation, fallback gating, progress-event ordering, obs
instrumentation, and the allocation-free hot path.  Tests of the
kernel path itself skip, with a reason, where no C kernel can be built
(no compiler, or ``REPRO_SIM_CC=0``).
"""

import math
import multiprocessing
import os
import tracemalloc

import pytest

from repro import obs, scenarios
from repro.errors import PolicyError, SimulationError
from repro.exec.pool import parallel_map, partition_blocks
from repro.policies.uniform import UniformSizing
from repro.sim import _mbcc
from repro.sim.arbiter import KERNEL_ARBITERS
from repro.sim.megabatch import MegaBatchLane, megabatch_supported
from repro.sim.runner import (
    _simulate_seed,
    replicate,
    replication_seeds,
    simulate,
    simulate_block,
)

#: Scenario axis of the equivalence matrix: the three fixed scenarios
#: plus one generated random-mesh family member.
SCENARIOS = ("netproc", "fig1", "amba", "random-mesh-2-7")

HAS_KERNEL = _mbcc.load_kernel() is not None

#: Marks a test of the kernel path itself: without a C kernel every
#: cell takes the batched fallback, so there is no kernel to test.
needs_kernel = pytest.mark.skipif(
    not HAS_KERNEL,
    reason="no C kernel could be built (no compiler, failed build, "
    "or REPRO_SIM_CC=0)",
)


def batched_runs(topology, capacities, seeds, **kwargs):
    """One batched-lane run per seed: the per-seed reference."""
    return [
        _simulate_seed(
            topology, capacities, seed=seed, lane="batched", **kwargs
        )
        for seed in seeds
    ]


def _cell(name):
    spec = scenarios.get(name)
    topology = spec.topology()
    capacities = (
        UniformSizing().allocate(topology, spec.default_budget)
        .as_capacities()
    )
    return topology, capacities


@pytest.fixture(scope="module", params=SCENARIOS)
def cell(request):
    return request.param, *_cell(request.param)


# -- the bitwise equivalence matrix -------------------------------------


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("arbiter", KERNEL_ARBITERS)
    @pytest.mark.parametrize(
        "timeout,warmup", [(None, 0.0), (4.0, 50.0)]
    )
    def test_megabatch_matches_batched(self, cell, arbiter, timeout, warmup):
        name, topology, capacities = cell
        seeds = [3, 1003, 77]
        block = simulate_block(
            topology,
            capacities,
            duration=120.0,
            seeds=seeds,
            arbiter_kind=arbiter,
            timeout_threshold=timeout,
            warmup=warmup,
        )
        for seed, got in zip(seeds, block):
            ref = _simulate_seed(
                topology,
                capacities,
                duration=120.0,
                seed=seed,
                arbiter_kind=arbiter,
                timeout_threshold=timeout,
                warmup=warmup,
                lane="batched",
            )
            assert got == ref, (name, arbiter, timeout, warmup, seed)

    def test_megabatch_matches_heap(self, cell):
        name, topology, capacities = cell
        got = simulate(topology, capacities, duration=100.0, seed=3)
        ref = _simulate_seed(
            topology, capacities, duration=100.0, seed=3, lane="heap"
        )
        assert got == ref, name

    @needs_kernel
    @pytest.mark.parametrize("arbiter", KERNEL_ARBITERS)
    @pytest.mark.parametrize(
        "timeout,warmup", [(None, 0.0), (4.0, 50.0)]
    )
    def test_refill_path_matches_batched(self, arbiter, timeout, warmup):
        # At horizon 1000 netproc exhausts pre-drawn gap and service
        # rows mid-window, so the kernel pauses, the lane refills and
        # the kernel re-enters: the path where stream identity is
        # subtlest.
        topology, capacities = _cell("netproc")
        seeds = [3, 1003, 77]
        kwargs = dict(
            duration=1000.0,
            arbiter_kind=arbiter,
            timeout_threshold=timeout,
            warmup=warmup,
        )
        obs.enable_metrics()
        try:
            block = simulate_block(
                topology, capacities, seeds=seeds, **kwargs
            )
            counters = obs.registry().counters_snapshot()
        finally:
            obs.reset()
        # Without a refill each window (warm-up, measure) is exactly
        # one kernel invocation.
        windows = 2 if warmup > 0 else 1
        assert counters["sim.megabatch.invocations"] > windows
        assert block == batched_runs(topology, capacities, seeds, **kwargs)


# -- the kernel's one body ----------------------------------------------


class TestEngines:
    @needs_kernel
    @pytest.mark.parametrize("engine", ["cc"])
    def test_engine_bitwise_matches_batched(self, engine):
        topology, capacities = _cell("netproc")
        seeds = [3, 1003]
        block = simulate_block(
            topology,
            capacities,
            duration=150.0,
            seeds=seeds,
            timeout_threshold=3.0,
        )
        for seed, got in zip(seeds, block):
            ref = _simulate_seed(
                topology, capacities, duration=150.0, seed=seed,
                timeout_threshold=3.0, lane="batched",
            )
            assert got == ref, engine

    def test_forced_unavailable_engine_is_an_error(self, monkeypatch):
        # A lane is the kernel path: with no C kernel it refuses to
        # build rather than run anything else.
        monkeypatch.setenv("REPRO_SIM_CC", "0")
        monkeypatch.setattr(_mbcc, "_tried", False)
        monkeypatch.setattr(_mbcc, "_cached", None)
        topology, capacities = _cell("fig1")
        with pytest.raises(SimulationError, match="no C kernel"):
            MegaBatchLane(topology, capacities, [3])


# -- kernel-path gating and fallback ------------------------------------


class TestSupportGate:
    def test_deterministic_arbiters_supported(self):
        topology, _ = _cell("fig1")
        for arbiter in KERNEL_ARBITERS:
            assert megabatch_supported(topology, arbiter)

    def test_weighted_random_not_supported(self):
        topology, _ = _cell("fig1")
        assert not megabatch_supported(topology, "weighted_random")

    def test_stateful_traffic_not_supported(self):
        from repro.arch.traffic import TrafficDescriptor
        from repro.sim.workloads import TraceTraffic

        assert TrafficDescriptor.stateless_sampling is True
        assert TraceTraffic.stateless_sampling is False

    def test_unsupported_backend_falls_back_bitwise(self):
        topology, capacities = _cell("fig1")
        got = simulate(
            topology, capacities, duration=100.0, seed=3,
            arbiter_kind="weighted_random",
        )
        ref = _simulate_seed(
            topology, capacities, duration=100.0, seed=3,
            arbiter_kind="weighted_random", lane="batched",
        )
        assert got == ref

    def test_lane_rejects_randomised_arbiter(self):
        topology, capacities = _cell("fig1")
        with pytest.raises(SimulationError, match="deterministic"):
            MegaBatchLane(
                topology, capacities, [3],
                arbiter_kind="weighted_random",
            )

    def test_lane_rejects_empty_seed_list(self):
        topology, capacities = _cell("fig1")
        with pytest.raises(SimulationError, match="seed"):
            MegaBatchLane(topology, capacities, [])

    @needs_kernel
    def test_lane_window_protocol_errors(self):
        topology, capacities = _cell("fig1")
        lane = MegaBatchLane(topology, capacities, [3])
        with pytest.raises(SimulationError, match="start"):
            lane.run_until(10.0)
        lane.start()
        with pytest.raises(SimulationError, match="started"):
            lane.start()
        lane.run_until(10.0)
        with pytest.raises(SimulationError, match="before now"):
            lane.run_until(5.0)


# -- counted fallbacks --------------------------------------------------


def _fallback_counts(run):
    """``(results, {kind: count})`` of ``run()`` under live metrics."""
    obs.enable_metrics()
    try:
        results = run()
        counters = obs.registry().counters_snapshot()
    finally:
        obs.reset()
    return results, {
        kind: counters.get("sim.megabatch.fallback." + kind, 0)
        for kind in ("unsupported", "no_kernel")
    }


class TestCountedFallbacks:
    """No path degrades silently: each fallback counts once per block."""

    SEEDS = [3, 1003, 77]

    def _batched(self, topology, capacities, **kwargs):
        return batched_runs(
            topology, capacities, self.SEEDS, duration=100.0, **kwargs
        )

    def test_unsupported_cell_counts_and_matches_batched(self):
        topology, capacities = _cell("fig1")
        kwargs = dict(
            arbiter_kind="weighted_random",
            arbiter_weights={"p1": 2.0, "p3": 0.5},
        )
        got, counts = _fallback_counts(
            lambda: simulate_block(
                topology, capacities, duration=100.0, seeds=self.SEEDS,
                **kwargs,
            )
        )
        assert counts == {"unsupported": 1, "no_kernel": 0}
        assert got == self._batched(topology, capacities, **kwargs)

    def test_no_kernel_counts_and_matches_batched(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CC", "0")
        monkeypatch.setattr(_mbcc, "_tried", False)
        monkeypatch.setattr(_mbcc, "_cached", None)
        topology, capacities = _cell("amba")
        got, counts = _fallback_counts(
            lambda: simulate_block(
                topology, capacities, duration=100.0, seeds=self.SEEDS,
                timeout_threshold=3.0,
            )
        )
        assert counts == {"unsupported": 0, "no_kernel": 1}
        assert got == self._batched(
            topology, capacities, timeout_threshold=3.0
        )

    @pytest.mark.parametrize(
        "argument,value",
        [
            ("duration", 0.0),
            ("duration", -5.0),
            ("duration", math.nan),
            ("duration", math.inf),
            ("warmup", -1.0),
            ("warmup", math.nan),
            ("warmup", math.inf),
        ],
    )
    def test_invalid_window_is_an_error_not_a_fallback(self, argument, value):
        # A non-finite window never ends; a non-positive one measures
        # nothing.  Both are rejected before any lane is chosen.
        topology, capacities = _cell("amba")
        kwargs = {"duration": 100.0, "warmup": 0.0, argument: value}

        def run():
            with pytest.raises(SimulationError, match=argument):
                simulate_block(
                    topology, capacities, seeds=self.SEEDS, **kwargs
                )

        _, counts = _fallback_counts(run)
        assert counts == {"unsupported": 0, "no_kernel": 0}

    def test_unknown_arbiter_is_an_error_not_a_fallback(self):
        topology, capacities = _cell("fig1")

        def run():
            with pytest.raises(PolicyError, match="bogus"):
                simulate(
                    topology, capacities, duration=10.0, arbiter_kind="bogus"
                )

        _, counts = _fallback_counts(run)
        assert counts == {"unsupported": 0, "no_kernel": 0}


# -- block dispatch: replicate / jobs=N / dist --------------------------


class TestBlockDispatch:
    def test_partition_blocks_cover_in_order(self):
        assert partition_blocks(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert partition_blocks(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert partition_blocks(5, 1) == [(0, 5)]
        with pytest.raises(SimulationError):
            partition_blocks(0, 2)

    def test_replicate_matches_batched_serial_and_pooled(self):
        topology, capacities = _cell("amba")
        kwargs = dict(replications=5, duration=150.0)
        ref = batched_runs(
            topology, capacities, replication_seeds(5), duration=150.0
        )
        serial = replicate(topology, capacities, **kwargs)
        pooled = replicate(topology, capacities, jobs=2, **kwargs)
        assert serial.results == ref
        assert pooled.results == ref

    def test_on_result_streams_per_replication_in_index_order(self):
        # Parity with the per-replication streaming contract: a block
        # completes as one unit but still reports every replication.
        topology, capacities = _cell("amba")
        for jobs in (1, 2):
            events = []
            summary = replicate(
                topology,
                capacities,
                replications=5,
                duration=100.0,
                jobs=jobs,
                on_result=lambda i, r: events.append((i, r)),
            )
            assert [i for i, _ in events] == list(range(5))
            assert [r for _, r in events] == summary.results


class TestDistMerge:
    @pytest.fixture()
    def server(self):
        from repro.dist import BrokerServer

        broker_server = BrokerServer(
            port=0, lease_timeout=5.0
        ).start_in_thread()
        yield broker_server
        broker_server.stop()

    def test_dist_merge_bitwise_identical(self, server):
        from repro.dist import DistExecutor, worker_loop

        fork = multiprocessing.get_context("fork")
        worker = fork.Process(
            target=worker_loop,
            args=(server.address,),
            daemon=True,
        )
        worker.start()
        try:
            executor = DistExecutor(server.address, timeout=120)
            topology, capacities = _cell("amba")
            kwargs = dict(replications=5, duration=120.0)
            distributed = replicate(
                topology,
                capacities,
                executor=executor,
                **kwargs,
            )
            serial = batched_runs(
                topology, capacities, replication_seeds(5), duration=120.0
            )
            assert distributed.results == serial
        finally:
            worker.terminate()


class TestChaosSmoke:
    def test_chaos_matrix_green_under_megabatch(self):
        from repro.faults.chaos import run_chaos_matrix
        from repro.faults.plan import standard_plans

        plans = dict(list(standard_plans().items())[:2])
        report = run_chaos_matrix(
            ["single-bus-4"],
            budgets=[8],
            replications=2,
            duration=20.0,
            plans=plans,
            modes=("serial", "jobs"),
            jobs=2,
        )
        assert report.all_match, report.render()


# -- cache keys ---------------------------------------------------------


class TestCacheKey:
    def test_cache_hit_still_streams_per_replication(self):
        from repro.dist.jobs import ProcessMemo
        from repro.exec import ExecutionContext

        topology, capacities = _cell("fig1")
        memo = ProcessMemo()
        context = ExecutionContext(jobs=1, cache=memo)
        kwargs = dict(replications=3, duration=80.0)
        context.replicate(topology, capacities, **kwargs)
        events = []
        hit = context.replicate(
            topology,
            capacities,
            on_result=lambda i, r: events.append(i),
            **kwargs,
        )
        assert memo.hits == 1
        assert events == list(range(3))
        assert len(hit.results) == 3


# -- observability ------------------------------------------------------


class TestObservability:
    @needs_kernel
    def test_kernel_spans_and_metrics_fire(self):
        topology, capacities = _cell("fig1")
        obs.enable_metrics()
        obs.enable_tracing()
        try:
            simulate_block(
                topology, capacities, duration=100.0, seeds=[3, 1003],
            )
            counters = obs.registry().counters_snapshot()
            assert counters["sim.megabatch.invocations"] >= 1
            histograms = obs.registry().snapshot()["histograms"]
            hist = histograms["sim.megabatch.replications_per_invocation"]
            assert hist["count"] >= 1
            assert hist["max"] == 2.0
            names = [name for name, *_ in obs.recorder().spans()]
            assert "sim.megabatch.kernel" in names
            assert "sim.window" in names
        finally:
            obs.reset()

    def test_window_span_names_the_lane_that_ran(self, monkeypatch):
        topology, capacities = _cell("fig1")

        def window_lanes(**kwargs):
            obs.enable_tracing()
            try:
                simulate(
                    topology, capacities, duration=50.0, seed=3, **kwargs
                )
                return {
                    args["backend"]
                    for name, _start, _dur, args in obs.recorder().spans()
                    if name == "sim.window"
                }
            finally:
                obs.reset()

        assert window_lanes(
            arbiter_kind="weighted_random", arbiter_weights={"p1": 2.0}
        ) == {"batched"}
        monkeypatch.setenv("REPRO_SIM_CC", "0")
        assert window_lanes() == {"batched"}
        monkeypatch.delenv("REPRO_SIM_CC")
        if HAS_KERNEL:
            assert window_lanes() == {"megabatch"}

    @needs_kernel
    def test_kernel_allocates_nothing_in_obs_when_disabled(self):
        topology, capacities = _cell("fig1")
        run = lambda: simulate_block(
            topology, capacities, duration=200.0, seeds=[3],
            warmup=50.0,
        )
        run()  # warm lazy imports, the compiled kernel, and caches
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


# -- registry -----------------------------------------------------------


class TestRegistry:
    def test_parallel_map_unaffected(self):
        # Block dispatch reuses parallel_map; the plain path stays put.
        assert parallel_map(len, [[1], [1, 2]]) == [1, 2]
