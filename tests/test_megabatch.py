"""Tests for the mega-batch replication kernel (``simulate_block``).

The lane's whole value rests on one claim: stacking ``R`` replications
into one array program changes *nothing* about the numbers.  So the
suite is mostly equality matrices — the C kernel vs batched vs heap
across scenarios, arbiters, timeout and warmup, including horizons
long enough that the kernel redraws gap chunks mid-window; serial vs
``jobs=N`` vs distributed merges — plus the kernel's own draws held
to numpy's (stream seeding, chunk samplers) and the supporting
contracts: argument validation, fallback gating, progress-event
ordering, obs instrumentation, and the allocation-free hot path.  Tests
of the kernel path itself skip, with a reason, where no C kernel can be
built (no compiler, no numpy C sampler library, or ``REPRO_SIM_CC=0``).
"""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

import repro
from repro import obs, scenarios
from repro.arch.topology import Topology, rebuilt_topology
from repro.arch.traffic import (
    HyperexponentialTraffic,
    OnOffTraffic,
    PoissonTraffic,
    TrafficDescriptor,
)
from repro.errors import PolicyError, SimulationError
from repro.exec.pool import parallel_map, partition_blocks
from repro.policies.uniform import UniformSizing
from repro.sim import _mbcc, megabatch
from repro.sim.arbiter import KERNEL_ARBITERS
from repro.sim.batched import BatchedSystem
from repro.sim.megabatch import SAMPLERS, MegaBatchLane, megabatch_supported
from repro.sim.runner import (
    _simulate_seed,
    replicate,
    replication_seeds,
    simulate,
    simulate_block,
)
from repro.sim.system import CommunicationSystem

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
        # At horizon 1000 netproc's sources exhaust their gap chunks
        # mid-window, so the kernel redraws them between events: the
        # path where stream identity is subtlest.
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
        # The kernel draws its own variates, so even with refills each
        # window (warm-up, measure) counts once, however many spans of
        # replications it runs.
        windows = 2 if warmup > 0 else 1
        assert counters["sim.megabatch.invocations"] == windows
        assert block == batched_runs(topology, capacities, seeds, **kwargs)


# -- bursty traffic and large seeds ------------------------------------

#: Seeds of the bursty and large-seed cells: one word, past 32 bits,
#: past 64 bits, and two full 64-bit seeds (the first words of
#: ``SeedSequence(5).spawn(2)``).
BURSTY_SEEDS = [0, 2**32, 2**70, 15658875773272509128, 6924645418555453511]

#: Long enough that every bursty fig1 source draws at least four
#: 256-gap chunks (checked by ``_fewest_chunks``).
BURSTY_HORIZON = 3000.0


def _bursty_descriptor(index, rate):
    """Poisson, hyperexponential or on-off by flow index, at mean ``rate``."""
    kind = index % 3
    if kind == 0:
        return PoissonTraffic(rate)
    if kind == 1:
        # A tenth of the gaps are long (mean 5 / rate).
        return HyperexponentialTraffic(0.2 * rate, 1.8 * rate, 0.1)
    return OnOffTraffic(peak_rate=3.0 * rate, mean_on=1.0, mean_off=2.0)


def _bursty_cell(name="fig1"):
    """``name``'s cell with its flows cycled through all three kinds."""
    topology, capacities = _cell(name)
    order = {flow: i for i, flow in enumerate(sorted(topology.flows))}
    bursty = rebuilt_topology(
        topology,
        name=f"{name}-bursty",
        flow_traffic=lambda flow: _bursty_descriptor(
            order[flow.name], flow.traffic.mean_rate
        ),
    )
    return bursty, capacities


def _fewest_chunks(topology, seed, horizon, batch=256):
    """Fewest gap chunks any source draws in a run to ``horizon``.

    Arrivals do not depend on the buses, so a source's chunk count
    follows from its own stream: the flow streams are children
    ``B..B+S-1`` of ``SeedSequence(seed)``, sources in flow-name order.
    A source draws another chunk while its gaps so far end by
    ``horizon``.
    """
    names = sorted(topology.flows)
    buses = len(topology.bus_clusters())
    children = np.random.SeedSequence(seed).spawn(buses + len(names))
    fewest = None
    for child, name in zip(children[buses:], names):
        traffic = topology.flows[name].traffic
        rng = np.random.default_rng(child)
        elapsed, chunks = 0.0, 0
        while elapsed <= horizon:
            elapsed += float(traffic.sample_interarrivals(rng, batch).sum())
            chunks += 1
        fewest = chunks if fewest is None else min(fewest, chunks)
    return fewest


class TestBurstyTraffic:
    """On-off and hyperexponential flows on the kernel, over many chunks."""

    @pytest.fixture(scope="class")
    def bursty(self):
        return _bursty_cell()

    def test_every_source_draws_four_chunks(self, bursty):
        topology, _ = bursty
        kinds = {type(flow.traffic) for flow in topology.flows.values()}
        assert kinds == {
            PoissonTraffic, HyperexponentialTraffic, OnOffTraffic
        }
        for seed in BURSTY_SEEDS:
            assert _fewest_chunks(topology, seed, BURSTY_HORIZON) >= 4

    @pytest.mark.parametrize("arbiter", KERNEL_ARBITERS)
    @pytest.mark.parametrize(
        "timeout,warmup", [(None, 0.0), (4.0, 50.0)]
    )
    def test_megabatch_matches_batched(self, bursty, arbiter, timeout,
                                       warmup):
        topology, capacities = bursty
        kwargs = dict(
            duration=BURSTY_HORIZON,
            arbiter_kind=arbiter,
            timeout_threshold=timeout,
            warmup=warmup,
        )
        block = simulate_block(
            topology, capacities, seeds=BURSTY_SEEDS, **kwargs
        )
        assert block == batched_runs(
            topology, capacities, BURSTY_SEEDS, **kwargs
        )

    def test_megabatch_matches_heap(self, bursty):
        topology, capacities = bursty
        kwargs = dict(
            duration=BURSTY_HORIZON, timeout_threshold=4.0, warmup=50.0
        )
        block = simulate_block(
            topology, capacities, seeds=BURSTY_SEEDS, **kwargs
        )
        for seed, got in zip(BURSTY_SEEDS, block):
            ref = _simulate_seed(
                topology, capacities, seed=seed, lane="heap", **kwargs
            )
            assert got == ref, seed

    def test_large_seeds_match_batched(self):
        topology, capacities = _cell("netproc")
        seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**70, 2**200 + 11]
        block = simulate_block(
            topology, capacities, duration=120.0, seeds=seeds
        )
        assert block == batched_runs(
            topology, capacities, seeds, duration=120.0
        )

    def test_negative_seed_is_a_value_error_on_every_path(
        self, monkeypatch
    ):
        topology, capacities = _cell("fig1")
        cases = [{}, {"arbiter_kind": "weighted_random"}]
        for kwargs in cases:
            with pytest.raises(ValueError, match="non-negative"):
                simulate_block(
                    topology, capacities, duration=10.0, seeds=[3, -1],
                    **kwargs,
                )
        monkeypatch.setenv("REPRO_SIM_CC", "0")
        monkeypatch.setattr(_mbcc, "_tried", False)
        monkeypatch.setattr(_mbcc, "_cached", None)
        with pytest.raises(ValueError, match="non-negative"):
            simulate_block(
                topology, capacities, duration=10.0, seeds=[3, -1]
            )

    @needs_kernel
    def test_lane_rejects_negative_seed(self):
        topology, capacities = _cell("fig1")
        with pytest.raises(ValueError, match="non-negative"):
            MegaBatchLane(topology, capacities, [3, -1])


# -- replication spans on threads ----------------------------------------

#: Seeds of the span cells: five, so two and three spans are uneven.
SPAN_SEEDS = [3, 1003, 77, 2**40 + 5, 12]


def _python(*args, timeout=120, **kwargs):
    """Run this interpreter on ``args`` with the tree's ``src`` importable.

    In its own session: on a timeout the whole process group is killed,
    so a hung child and any pool workers it forked cannot outlive the
    test.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    with subprocess.Popen(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, **kwargs,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail(f"the child interpreter did not finish in {timeout} s")
    return subprocess.CompletedProcess(
        child.args, child.returncode, stdout, stderr
    )


def _span_run(topology, capacities, arbiter, threads, monkeypatch):
    """A warm-up window then a measure window on ``threads`` spans.

    Returns every state array after each window, and the span calls
    the windows made as sorted ``(end_time, lo, hi, draw)`` tuples.
    """
    calls = []
    span = MegaBatchLane._span

    def recording(lane, end_time, draw, lo, hi):
        calls.append((end_time, lo, hi, draw))
        span(lane, end_time, draw, lo, hi)

    monkeypatch.setattr(megabatch, "KERNEL_THREADS", threads)
    monkeypatch.setattr(MegaBatchLane, "_span", recording)
    lane = MegaBatchLane(
        topology, capacities, SPAN_SEEDS, arbiter_kind=arbiter,
        timeout_threshold=4.0,
    )
    lane.start()
    states = []
    for end_time in (50.0, 400.0):
        lane.run_until(end_time)
        states.append(
            {name: getattr(lane, name).tobytes() for name in _mbcc.ARRAYS}
        )
    return states, sorted(calls)


@needs_kernel
class TestReplicationSpans:
    """Spans of replications on separate threads change nothing."""

    @pytest.fixture(scope="class")
    def bursty(self):
        return _bursty_cell()

    @pytest.mark.parametrize("arbiter", KERNEL_ARBITERS)
    def test_every_split_equals_one_span(self, bursty, arbiter, monkeypatch):
        topology, capacities = bursty
        kinds = {type(flow.traffic) for flow in topology.flows.values()}
        assert kinds == set(SAMPLERS)
        R = len(SPAN_SEEDS)
        want, one = _span_run(topology, capacities, arbiter, 1, monkeypatch)
        assert one == [(50.0, 0, R, True), (400.0, 0, R, False)]
        for threads in (2, 3, R):
            got, calls = _span_run(
                topology, capacities, arbiter, threads, monkeypatch
            )
            spans = partition_blocks(R, threads)
            assert calls == sorted(
                [(50.0, lo, hi, True) for lo, hi in spans]
                + [(400.0, lo, hi, False) for lo, hi in spans]
            ), threads
            for window, (a, b) in enumerate(zip(got, want)):
                for name in _mbcc.ARRAYS:
                    assert a[name] == b[name], (threads, window, name)

    def test_a_span_call_touches_only_its_replications(self, bursty):
        topology, capacities = bursty
        R = len(SPAN_SEEDS)
        lanes = [
            MegaBatchLane(
                topology, capacities, SPAN_SEEDS, arbiter_kind="round_robin",
                timeout_threshold=4.0,
            )
            for _ in range(3)
        ]
        seeded, full, part = lanes
        for lane, (lo, hi) in ((full, (0, R)), (part, (1, 3))):
            lane._lib.mb_start(lane._state, lo, hi)
            lane._lib.mb_advance(lane._state, 100.0, lo, hi)
        rows = _mbcc.ARRAYS[_mbcc.ARRAYS.index("ev_time"):]
        for name in rows:
            for r in range(R):
                want = full if 1 <= r < 3 else seeded
                assert (
                    getattr(part, name)[r].tobytes()
                    == getattr(want, name)[r].tobytes()
                ), (name, r)

    def test_threads_are_capped_at_the_replications(self, monkeypatch):
        topology, capacities = _cell("amba")
        seeds = [3, 1003]
        want = simulate_block(
            topology, capacities, duration=100.0, seeds=seeds
        )
        monkeypatch.setattr(megabatch, "KERNEL_THREADS", 8)
        spans = []
        span = MegaBatchLane._span

        def recording(lane, end_time, draw, lo, hi):
            spans.append((lo, hi))
            span(lane, end_time, draw, lo, hi)

        monkeypatch.setattr(MegaBatchLane, "_span", recording)
        got = simulate_block(
            topology, capacities, duration=100.0, seeds=seeds
        )
        assert sorted(spans) == [(0, 1), (1, 2)]
        assert got == want

    def test_lanes_on_many_threads_share_the_pool(self, monkeypatch):
        # Four threads run lanes at once on one pool of more threads
        # than CPUs, switching often: a span lost, run twice or run on
        # another lane's state would change some result.
        cells = [_cell(name) for name in ("amba", "fig1", "netproc")]
        seeds = [3, 1003, 77, 12, 2**40 + 5]
        want = [
            simulate_block(topology, capacities, duration=80.0, seeds=seeds)
            for topology, capacities in cells
        ]
        monkeypatch.setattr(megabatch, "KERNEL_THREADS", 4)
        monkeypatch.setattr(megabatch, "_pool", None)
        got = {}

        def run(k):
            for repeat in range(3):
                topology, capacities = cells[(k + repeat) % len(cells)]
                got[k, repeat] = simulate_block(
                    topology, capacities, duration=80.0, seeds=seeds
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            if megabatch._pool is not None:
                megabatch._pool.shutdown()
        assert len(got) == 12
        for (k, repeat), results in got.items():
            assert results == want[(k + repeat) % len(cells)], (k, repeat)

    def test_thread_count_is_the_affinity_mask(self):
        # Kernel threads and `--jobs 0` workers count the same CPUs.
        cpus = sorted(os.sched_getaffinity(0))
        probe = (
            "-c",
            "from repro.exec.pool import resolve_jobs; "
            "from repro.sim import megabatch; "
            "print(megabatch.KERNEL_THREADS, resolve_jobs(0))",
        )
        pinned = _python(
            *probe, preexec_fn=lambda: os.sched_setaffinity(0, cpus[:1])
        )
        assert pinned.stdout.split() == ["1", "1"], pinned.stderr
        free = _python(*probe)
        assert free.stdout.split() == [str(len(cpus))] * 2, free.stderr

    def test_fork_after_a_threaded_window_completes(self):
        # A pool made before a fork has no threads in the child: work
        # queued to it would wait forever.  In a subprocess, so a hang
        # fails this test instead of stalling the suite.
        script = textwrap.dedent("""
            from repro import scenarios
            from repro.exec.pool import parallel_map
            from repro.policies.uniform import UniformSizing
            from repro.sim import megabatch
            from repro.sim.runner import replicate, simulate_block

            def kernel_threads(_):
                return megabatch.KERNEL_THREADS

            if __name__ == "__main__":
                megabatch.KERNEL_THREADS = 2  # threaded on any host
                spec = scenarios.get("amba")
                topology = spec.topology()
                capacities = UniformSizing().allocate(
                    topology, spec.default_budget
                ).as_capacities()
                simulate_block(
                    topology, capacities, duration=50.0, seeds=[1, 2, 3, 4]
                )
                assert megabatch._pool is not None
                print(parallel_map(kernel_threads, [0, 1], jobs=2))
                summary = replicate(
                    topology, capacities, replications=4, duration=50.0,
                    jobs=2,
                )
                print(len(summary.results))
        """)
        done = _python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["[1, 1]", "4"], done.stdout

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_workers_run_one_kernel_thread(self, method, tmp_path):
        # No fork handler runs in a spawned or forkserver child: the
        # pool's own initializer must set its one thread.  A script
        # file, so the child can import the probe.
        script = tmp_path / "probe.py"
        script.write_text(textwrap.dedent(f"""
            import multiprocessing
            from repro.exec.pool import parallel_map
            from repro.sim import megabatch

            def kernel_threads(_):
                return megabatch.KERNEL_THREADS

            if __name__ == "__main__":
                multiprocessing.set_start_method({method!r})
                print(parallel_map(kernel_threads, [0, 1], jobs=2))
        """))
        done = _python(str(script))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[1,", "1]"], done.stdout


# -- the kernel's own draws against numpy -------------------------------


@needs_kernel
class TestKernelDraws:
    """The C kernel seeds and samples exactly as numpy's generators do."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70, 2**200 + 11] + [
        # The first words of ``SeedSequence(9).spawn(3)``: full 64-bit.
        5941392204501240012,
        9624548280144602028,
        14257372463384944814,
    ]

    def test_stream_seeding_matches_numpy(self):
        topology, capacities = _cell("netproc")
        lane = MegaBatchLane(topology, capacities, self.SEEDS)
        for r, seed in enumerate(self.SEEDS):
            children = np.random.SeedSequence(seed).spawn(lane.B + lane.S)
            for c, child in enumerate(children):
                want = np.random.PCG64(child).state["state"]
                hi_s, lo_s, hi_i, lo_i = (int(w) for w in lane.rng[r, c])
                assert (hi_s << 64 | lo_s, hi_i << 64 | lo_i) == (
                    want["state"], want["inc"]
                ), (seed, c)

    def test_chunk_samplers_match_descriptors(self):
        # mb_start draws one chunk per source from where its stream
        # stands, so calling it again draws the next chunk.
        topology, capacities = _bursty_cell()
        seeds = self.SEEDS[:4]
        lane = MegaBatchLane(topology, capacities, seeds)
        traffic = [topology.flows[name].traffic
                   for name in sorted(topology.flows)]
        rngs = [
            [np.random.default_rng(child) for child in
             np.random.SeedSequence(seed).spawn(lane.B + lane.S)[lane.B:]]
            for seed in seeds
        ]
        for chunk in range(5):
            lane._lib.mb_start(lane._state, 0, lane.R)
            for r in range(lane.R):
                for s, batch in enumerate(lane.src_batch):
                    want = traffic[s].sample_interarrivals(
                        rngs[r][s], int(batch)
                    )
                    got = lane.gaps[r, s, :batch]
                    assert np.array_equal(got, want), (
                        chunk, seeds[r], type(traffic[s]).__name__
                    )


class TestKernelBuild:
    def test_cache_key_covers_numpy_and_its_sampler(
        self, tmp_path, monkeypatch
    ):
        library = tmp_path / "libnpyrandom.a"
        library.write_bytes(b"x" * 10)
        os.utime(library, ns=(1, 10**9))
        base = _mbcc.kernel_path("cc", str(library))
        assert _mbcc.kernel_path("cc", str(library)) == base
        with monkeypatch.context() as patch:
            patch.setattr(np, "__version__", np.__version__ + ".post1")
            assert _mbcc.kernel_path("cc", str(library)) != base
        os.utime(library, ns=(1, 2 * 10**9))
        assert _mbcc.kernel_path("cc", str(library)) != base
        library.write_bytes(b"x" * 11)
        os.utime(library, ns=(1, 10**9))
        assert _mbcc.kernel_path("cc", str(library)) != base

    def test_missing_sampler_library_takes_the_no_kernel_fallback(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SIM_CC", raising=False)
        monkeypatch.setattr(
            _mbcc, "_sampler_library", lambda: str(tmp_path / "missing.a")
        )
        monkeypatch.setattr(_mbcc, "_tried", False)
        monkeypatch.setattr(_mbcc, "_cached", None)
        monkeypatch.setattr(_mbcc, "_warned", False)
        if _mbcc._compiler() is not None:
            with pytest.warns(RuntimeWarning, match="missing.a"):
                assert _mbcc.load_kernel() is None
        topology, capacities = _cell("amba")
        seeds = [3, 1003]
        got, counts = _fallback_counts(
            lambda: simulate_block(
                topology, capacities, duration=100.0, seeds=seeds
            )
        )
        assert counts == {"unsupported": 0, "no_kernel": 1}
        assert got == batched_runs(
            topology, capacities, seeds, duration=100.0
        )


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


# -- the lane's wiring ---------------------------------------------------


def _template_arrays(topology, capacities, arbiter, timeout):
    """The lane's static arrays as ``BatchedSystem`` derives them.

    The reference the lane's own wiring is held to: a template
    ``CommunicationSystem`` adopted by a ``BatchedSystem``, laid out
    the way the kernel reads it.
    """
    ref = BatchedSystem(
        CommunicationSystem(
            topology, capacities, arbiter_kind=arbiter,
            timeout_threshold=timeout,
        )
    )
    S = len(ref._traffic)
    hmax = max(len(bufs) for bufs in ref._flow_bufs)
    flow_ring = np.zeros((S, hmax), dtype=np.int64)
    flow_scale = np.zeros((S, hmax))
    for s, (bufs, scales) in enumerate(
        zip(ref._flow_bufs, ref._flow_scale)
    ):
        flow_ring[s, : len(bufs)] = bufs
        flow_scale[s, : len(scales)] = scales
    src_kind = np.zeros(S, dtype=np.int64)
    src_par = np.zeros((S, _mbcc.SRC_PARAMS))
    for s, traffic in enumerate(ref._traffic):
        kind, params = SAMPLERS[type(traffic)]
        src_kind[s] = kind
        par = params(traffic)
        src_par[s, : len(par)] = par
    # Each cluster's rings are one ascending span, clusters in order.
    cl_off = [0]
    for ids in ref._cl_rings:
        assert list(ids) == list(range(cl_off[-1], cl_off[-1] + len(ids)))
        cl_off.append(cl_off[-1] + len(ids))
    ring_bus = np.asarray(ref._ring_cluster, dtype=np.int64)
    return {
        "cap": np.asarray(ref._cap, dtype=np.int64),
        "ring_bus": ring_bus,
        "cl_off": np.asarray(cl_off, dtype=np.int64),
        "arb_kind": np.asarray(ref._arb_kind, dtype=np.int64),
        "flow_ring": flow_ring,
        "flow_scale": flow_scale,
        "flow_src": np.asarray(ref._flow_src, dtype=np.int64),
        "flow_last": np.asarray(ref._flow_last, dtype=np.int64),
        "first_bus": ring_bus[flow_ring[:, 0]],
        "src_kind": src_kind,
        "src_par": src_par,
        "src_batch": np.asarray(ref._src_batch, dtype=np.int64),
        "proc_names": list(ref._proc_names),
        "timeout": (
            -1.0 if ref.timeout_threshold is None
            else float(ref.timeout_threshold)
        ),
    }


def _zero_bridge_cell():
    """amba with one bridge entry at zero slots and the other absent."""
    topology, capacities = _cell("amba")
    entries = sorted(name for name in capacities if "@" in name)
    assert len(entries) == 2, entries
    capacities = dict(capacities)
    capacities[entries[0]] = 0
    del capacities[entries[1]]
    return topology, capacities


#: Every registry scenario plus bridged random-mesh members.
WIRING_CELLS = tuple(scenarios.names()) + (
    "random-mesh-2-7", "random-mesh-3-5", "random-mesh-8-1",
)


def _no_buffer_topology():
    """A valid topology whose second cluster (two linked buses) has
    neither processors nor bridges, hence no buffers."""
    topology = Topology("no-buffers")
    for bus in ("a", "x", "y"):
        topology.add_bus(bus)
    topology.add_link("x", "y")
    topology.add_processor("p", "a", 5.0)
    topology.add_processor("q", "a", 4.0)
    topology.add_poisson_flow("f", "p", "q", 1.0)
    return topology


class TestLaneWiring:
    """The lane lays a cell out from ``wire`` alone, like the template
    systems it no longer builds."""

    @needs_kernel
    @pytest.mark.parametrize("arbiter", KERNEL_ARBITERS)
    @pytest.mark.parametrize("timeout", [None, 4.0])
    @pytest.mark.parametrize("name", WIRING_CELLS + ("amba-zero-bridge",))
    def test_static_arrays_match_the_template_systems(
        self, name, arbiter, timeout
    ):
        if name == "amba-zero-bridge":
            topology, capacities = _zero_bridge_cell()
        else:
            topology, capacities = _cell(name)
        lane = MegaBatchLane(
            topology, capacities, [3, 1003], arbiter_kind=arbiter,
            timeout_threshold=timeout,
        )
        want = _template_arrays(topology, capacities, arbiter, timeout)
        assert lane.proc_names == want.pop("proc_names")
        assert lane.timeout == want.pop("timeout")
        for field, array in want.items():
            got = getattr(lane, field)
            assert got.dtype == array.dtype, field
            assert got.shape == array.shape, field
            assert np.array_equal(got, array), field

    @needs_kernel
    def test_zero_capacity_bridge_runs_bitwise(self):
        topology, capacities = _zero_bridge_cell()
        seeds = [3, 1003]
        block = simulate_block(
            topology, capacities, duration=150.0, seeds=seeds
        )
        assert block == batched_runs(
            topology, capacities, seeds, duration=150.0
        )

    @needs_kernel
    def test_building_and_running_draws_no_numpy_generator(
        self, monkeypatch
    ):
        topology, capacities = _cell("coreconnect")
        seeds = [3, 1003]
        want = simulate_block(
            topology, capacities, duration=100.0, seeds=seeds,
            warmup=20.0,
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("the kernel path built a numpy RNG")

        monkeypatch.setattr(np.random, "SeedSequence", forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(np.random, "Generator", forbidden)
        MegaBatchLane(topology, capacities, seeds)
        assert simulate_block(
            topology, capacities, duration=100.0, seeds=seeds,
            warmup=20.0,
        ) == want

    @pytest.mark.parametrize(
        "case", ["missing-processor", "zero-timeout", "negative-timeout",
                 "negative-capacity", "no-buffers"],
    )
    def test_lane_raises_the_systems_error(self, case):
        topology, capacities = _cell("amba")
        capacities = dict(capacities)
        timeout = None
        if case == "missing-processor":
            del capacities[sorted(topology.processors)[1]]
        elif case == "zero-timeout":
            timeout = 0.0
        elif case == "negative-timeout":
            timeout = -4.0
        elif case == "negative-capacity":
            capacities[sorted(topology.processors)[0]] = -1
        else:
            topology = _no_buffer_topology()
            capacities = {"p": 2, "q": 2}
        with pytest.raises(SimulationError) as system_error:
            CommunicationSystem(
                topology, capacities, timeout_threshold=timeout
            )
        with pytest.raises(SimulationError) as lane_error:
            MegaBatchLane(
                topology, capacities, [3], timeout_threshold=timeout
            )
        assert str(lane_error.value) == str(system_error.value)
        if case == "no-buffers":
            assert "cluster 'cluster1' has no client buffers" in str(
                lane_error.value
            )


# -- kernel-path gating and fallback ------------------------------------


class TestSupportGate:
    def test_deterministic_arbiters_supported(self):
        topology, _ = _cell("fig1")
        for arbiter in KERNEL_ARBITERS:
            assert megabatch_supported(topology, arbiter)

    def test_weighted_random_not_supported(self):
        topology, _ = _cell("fig1")
        assert not megabatch_supported(topology, "weighted_random")

    def test_unsampled_traffic_not_supported(self):
        class ConstantGap(TrafficDescriptor):
            """Evenly spaced arrivals: a descriptor the kernel does not
            sample."""

            def __init__(self, gap):
                self.gap = gap

            @property
            def mean_rate(self):
                return 1.0 / self.gap

            def sample_interarrivals(self, rng, count):
                return np.full(count, self.gap)

        topology, capacities = _cell("fig1")
        unsampled = rebuilt_topology(
            topology, flow_traffic=lambda flow: ConstantGap(1.0 / flow.rate)
        )
        assert megabatch_supported(topology, "longest_queue")
        assert not megabatch_supported(unsampled, "longest_queue")
        kwargs = dict(duration=100.0, seed=3)
        got, counts = _fallback_counts(
            lambda: simulate(unsampled, capacities, **kwargs)
        )
        assert counts == {"unsupported": 1, "no_kernel": 0}
        assert got == _simulate_seed(
            unsampled, capacities, lane="batched", **kwargs
        )

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
        from repro.dist import DistExecutor, run_matrix, worker_loop

        fork = multiprocessing.get_context("fork")
        worker = fork.Process(
            target=worker_loop,
            args=(server.address,),
            daemon=True,
        )
        worker.start()
        try:
            executor = DistExecutor(server.address, timeout=120)
            (cell,) = run_matrix(
                ["amba"],
                budgets=[18],
                replications=5,
                duration=120.0,
                executor=executor,
            ).cells
        finally:
            worker.terminate()
        serial = batched_runs(
            scenarios.get("amba").topology(),
            cell.sizes,
            replication_seeds(5),
            duration=120.0,
        )
        assert cell.summary.results == serial


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
