"""Mega-batch replication lane: one array program per fleet cell.

:class:`MegaBatchLane` stacks ``R`` replications of one simulation cell
(same topology, capacities, arbiter and timeout — only the seed varies)
into flat arrays with a leading replication axis, so **one kernel
invocation advances a whole span of replications** instead of running
the batched lane ``R`` times, and a window runs up to
:data:`KERNEL_THREADS` contiguous spans at the same time, one per CPU
the process may use:

* every random variate is drawn inside the C kernel, on the streams
  :class:`~repro.sim.system.CommunicationSystem` would build
  (``SeedSequence(seed).spawn(B + S)``, bus streams first) and with
  numpy's own samplers, so every draw is bit-for-bit the one the serial
  lanes make (see :mod:`repro.sim._mbcc`);
* each source keeps one chunk row of
  :data:`~repro.sim.processor.GAP_CHUNK` gaps — the
  ``sample_interarrivals(rng, GAP_CHUNK)`` call sequence of the heap
  engine's :class:`~repro.sim.processor.FlowSource`, which matters for
  descriptors that re-randomise per call (``OnOffTraffic`` draws a
  fresh phase each chunk);
* queued packets live in replication-stacked ``(R, total_slots)``
  slot arrays, and the event calendar is a fixed ``(R, S + B)`` array;
* replications share no state, so spans on separate threads give
  bitwise the same output as one span.

The kernel has one body, the :mod:`repro.sim._mbcc` C build.  The lane
needs it: with no C kernel (no compiler, no numpy C library, a failed
build, or ``REPRO_SIM_CC=0``) construction raises
:class:`SimulationError`.  The tests hold the kernel bitwise to the
batched lane and to the heap engine, so the kernel is *not* part of
scenario cache keys.

The lane only takes the kernel path for configurations it can replay
exactly: deterministic arbiters (:data:`~repro.sim.arbiter
.KERNEL_ARBITERS`) and the traffic descriptors the kernel samples
(:data:`SAMPLERS`).  :func:`megabatch_supported` is the gate.
Unsupported cells (a ``weighted_random`` arbiter, or a descriptor the
kernel does not sample) and every cell on a host where no C kernel
could be built fall back to sequential per-replication batched-lane
runs in :func:`repro.sim.runner.simulate_block`, which counts each
fallback.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.arch.topology import Topology
from repro.arch.traffic import (
    HyperexponentialTraffic,
    OnOffTraffic,
    PoissonTraffic,
)
from repro.errors import SimulationError
from repro.exec.pool import partition_blocks, usable_cpus
from repro.sim import _mbcc
from repro.sim.arbiter import KERNEL_ARBITERS, kernel_tag, make_arbiter
from repro.sim.processor import GAP_CHUNK
from repro.sim.system import wire

#: The kernel's gap samplers by descriptor type: the ``src_kind`` code
#: and the ``src_par`` doubles, computed exactly as the descriptor's own
#: ``sample_interarrivals`` computes them.
SAMPLERS = {
    PoissonTraffic: (0, lambda t: (1.0 / t.rate,)),
    HyperexponentialTraffic: (
        1, lambda t: (t.phase1_prob, 1.0 / t.rate1, 1.0 / t.rate2)
    ),
    OnOffTraffic: (
        2,
        lambda t: (
            t.mean_on / (t.mean_on + t.mean_off),
            t.mean_on,
            t.mean_off,
            1.0 / t.peak_rate,
        ),
    ),
}

#: Sequence sentinel for idle completion slots: larger than any real
#: event id, so an idle slot can never win a ``(time, seq)`` tie.
SEQ_SENTINEL = np.int64(2**62)


#: Most replication spans one window runs at the same time: the CPUs
#: this process may use (:func:`~repro.exec.pool.usable_cpus`).  A
#: forked child and every :func:`~repro.exec.pool.parallel_map` worker
#: run one span (see :func:`_forked`): the fork or the pool already
#: spread the work over processes.
KERNEL_THREADS = usable_cpus()

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _kernel_pool() -> ThreadPoolExecutor:
    """The process-wide pool that runs every span but a window's first.

    Sized on first use, one thread short of :data:`KERNEL_THREADS`.  A
    pool thread only ever runs one kernel call and returns, so no pool
    thread waits on another, whichever threads run lanes.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(KERNEL_THREADS - 1, 1),
                thread_name_prefix="repro-mbkernel",
            )
        return _pool


def _forked() -> None:
    """In a forked child: the parent's pool threads do not exist here,
    so drop the pool (work queued to it would wait forever), and run
    every window on one thread.  ``parallel_map`` sets the one thread
    in its workers itself, under every start method."""
    global KERNEL_THREADS, _pool, _pool_lock
    KERNEL_THREADS = 1
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forked)


def megabatch_supported(topology: Topology, arbiter_kind: str) -> bool:
    """Whether the kernel path can replay this cell exactly.

    Requires a deterministic arbiter (the kernel inlines those three
    policies) and only descriptors the kernel samples
    (:data:`SAMPLERS`, matched by exact type).  Unsupported cells still
    run through :func:`~repro.sim.runner.simulate_block` — via the
    sequential batched fallback.
    """
    if arbiter_kind not in KERNEL_ARBITERS:
        return False
    return all(
        type(flow.traffic) in SAMPLERS for flow in topology.flows.values()
    )


class MegaBatchLane:
    """All replications of one simulation cell as a single array program.

    Parameters mirror :func:`repro.sim.runner.simulate`, except
    ``seeds`` — one per replication — replaces the single ``seed``.
    Construction lays the cell out with :func:`~repro.sim.system.wire`
    (so it validates exactly as :class:`CommunicationSystem` does) and
    seeds every replication's streams in C; :meth:`start` arms it, and
    the first :meth:`run_until` draws the first gap chunks and schedules
    first arrivals before it advances; each :meth:`run_until` makes one
    kernel call per span of replications.  Results are read
    from the replication-stacked counter arrays (``offered``, ``lost``,
    ``timed_out``, ``delivered``: ``(R, P)`` over :attr:`proc_names`;
    ``wait_sum``, ``wait_cnt``, ``e2e_sum``: ``(R,)``).  Raises
    :class:`SimulationError` when no C kernel can be built —
    :func:`repro.sim.runner.simulate_block` checks for that case first
    and takes its counted batched fallback instead — and
    ``ValueError`` for a negative seed, as ``SeedSequence`` does.
    """

    def __init__(
        self,
        topology: Topology,
        capacities: Dict[str, int],
        seeds: Sequence[int],
        arbiter_kind: str = "longest_queue",
        arbiter_weights: Optional[Dict[str, float]] = None,
        timeout_threshold: Optional[float] = None,
    ) -> None:
        if not seeds:
            raise SimulationError("mega-batch lane needs at least one seed")
        if not megabatch_supported(topology, arbiter_kind):
            raise SimulationError(
                "mega-batch kernel requires a deterministic arbiter "
                f"({KERNEL_ARBITERS}) and traffic it samples "
                f"({', '.join(t.__name__ for t in SAMPLERS)})"
            )
        wiring = wire(topology, capacities, timeout_threshold)
        lib = _mbcc.load_kernel()
        if lib is None:
            raise SimulationError(
                "the mega-batch lane runs only on its C kernel, and no C "
                "kernel could be built (no compiler, no numpy C library, "
                "failed build, or REPRO_SIM_CC=0)"
            )
        self.seeds = [int(s) for s in seeds]
        words, offsets = _mbcc.entropy_words(self.seeds)
        R = len(self.seeds)
        self.R = R

        # -- static structure arrays ---------------------------------
        # One ring per buffer, cluster by cluster in arbiter order, so
        # cluster b's rings are the span cl_off[b]:cl_off[b + 1].
        ring_of: Dict[Tuple[int, str], int] = {}
        caps: List[int] = []
        ring_bus: List[int] = []
        cl_off = [0]
        for b, clients in enumerate(wiring.buffers):
            for name, slots in clients:
                ring_of[b, name] = len(caps)
                caps.append(slots)
                ring_bus.append(b)
            cl_off.append(len(caps))
        S = len(wiring.flows)
        B = len(wiring.clusters)
        G = len(caps)
        self.proc_names: List[str] = sorted(topology.processors)
        P = len(self.proc_names)
        self.S, self.B, self.G, self.P = S, B, G, P
        W = self.W = S + B
        # Ring g's slots are columns slot_off[g]:slot_off[g + 1] of
        # every replication's slot rows (a capacity-zero ring gets an
        # empty span: always full, like the object ring).
        slot_off = [0]
        for slots in caps:
            slot_off.append(slot_off[-1] + slots)
        T = self.T = slot_off[-1]
        Hmax = self.Hmax = max((len(hops) for hops in wiring.hops), default=1)
        L = self.gap_depth = GAP_CHUNK
        self.timeout = (
            float(timeout_threshold)
            if timeout_threshold is not None
            else -1.0  # sentinel: wire() validates real thresholds > 0
        )

        self.cap = np.array(caps, dtype=np.int64)
        self.slot_off = np.array(slot_off, dtype=np.int64)
        self.ring_bus = np.array(ring_bus, dtype=np.int64)
        self.cl_off = np.array(cl_off, dtype=np.int64)
        self.arb_kind = np.full(
            B, kernel_tag(make_arbiter(arbiter_kind)), dtype=np.int64
        )
        self.flow_ring = np.zeros((S, Hmax), dtype=np.int64)
        self.flow_scale = np.zeros((S, Hmax))
        for s, hops in enumerate(wiring.hops):
            self.flow_ring[s, : len(hops)] = [
                ring_of[hop.cluster_index, hop.client] for hop in hops
            ]
            self.flow_scale[s, : len(hops)] = [
                1.0 / hop.service_rate for hop in hops
            ]
        proc_index = {name: i for i, name in enumerate(self.proc_names)}
        self.flow_src = np.array(
            [proc_index[flow.source] for flow in wiring.flows],
            dtype=np.int64,
        )
        self.flow_last = np.array(
            [len(hops) - 1 for hops in wiring.hops], dtype=np.int64
        )
        self.first_bus = self.ring_bus[self.flow_ring[:, 0]]

        # -- per-source samplers: one chunk row of GAP_CHUNK gaps each
        self.src_kind = np.zeros(S, dtype=np.int64)
        self.src_par = np.zeros((S, _mbcc.SRC_PARAMS))
        for s, flow in enumerate(wiring.flows):
            kind, params = SAMPLERS[type(flow.traffic)]
            self.src_kind[s] = kind
            par = params(flow.traffic)
            self.src_par[s, : len(par)] = par
        self.src_batch = np.full(S, GAP_CHUNK, dtype=np.int64)
        self.gaps = np.zeros((R, S, L))
        self.gap_idx = np.zeros((R, S), dtype=np.int64)
        # Streams in spawn order: buses 0..B-1, then sources.
        self.rng = np.zeros((R, W, 4), dtype=np.uint64)

        # -- replication-stacked dynamic state -----------------------
        self.sflow = np.zeros((R, T), dtype=np.int64)
        self.shop = np.zeros((R, T), dtype=np.int64)
        self.screa = np.zeros((R, T))
        self.senq = np.zeros((R, T))
        self.sscale = np.zeros((R, T))
        self.ev_time = np.full((R, W), np.inf)
        self.ev_seq = np.full((R, W), SEQ_SENTINEL, dtype=np.int64)
        self.next_id = np.zeros(R, dtype=np.int64)
        self.head = np.zeros((R, G), dtype=np.int64)
        self.cnt = np.zeros((R, G), dtype=np.int64)
        self.busy = np.zeros((R, B), dtype=np.int64)
        self.granted = np.full((R, B), -1, dtype=np.int64)
        self.rr_last = np.full((R, B), -1, dtype=np.int64)
        self.offered = np.zeros((R, P), dtype=np.int64)
        self.lost = np.zeros((R, P), dtype=np.int64)
        self.timed_out = np.zeros((R, P), dtype=np.int64)
        self.delivered = np.zeros((R, P), dtype=np.int64)
        self.wait_sum = np.zeros(R)
        self.wait_cnt = np.zeros(R, dtype=np.int64)
        self.e2e_sum = np.zeros(R)

        self._started = False
        self._drawn = False
        self._now = 0.0
        st = _mbcc.MBState(
            R, S, B, G, P, W, L, Hmax, self.timeout,
            *(getattr(self, name).ctypes.data for name in _mbcc.ARRAYS),
            T,
        )
        # The byref keeps the struct alive; the arrays it points at are
        # lane attributes, so they outlive every kernel call.
        self._lib = lib
        self._state = ctypes.byref(st)
        lib.mb_seed(self._state, words.ctypes.data, offsets.ctypes.data)

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the lane: the first window draws every first gap chunk
        and schedules every first arrival before it advances.

        First arrivals get sequence numbers ``0..S-1`` per replication,
        exactly like each replication's own heap engine.
        """
        if self._started:
            raise SimulationError("MegaBatchLane already started")
        self._started = True

    def run_until(self, end_time: float) -> None:
        """Advance every replication through ``end_time``.

        Same boundary semantics as the serial lanes: events scheduled
        exactly at ``end_time`` execute.  The replications split into
        at most :data:`KERNEL_THREADS` contiguous spans, one kernel
        call each, run at the same time; the calling thread runs the
        first.  Instrumentation is per window — the kernel itself stays
        allocation-free with obs disabled.
        """
        if not self._started:
            raise SimulationError("call start() before run_until()")
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before now {self._now}"
            )
        with obs.span("sim.megabatch.kernel") as span:
            span.set("replications", self.R)
            draw = not self._drawn
            spans = partition_blocks(self.R, KERNEL_THREADS)
            if len(spans) == 1:
                self._span(end_time, draw, 0, self.R)
            else:
                # Each queued call holds the lane, so the arrays it
                # writes outlive it even if this thread stops waiting.
                pool = _kernel_pool()
                futures = [
                    pool.submit(self._span, end_time, draw, lo, hi)
                    for lo, hi in spans[1:]
                ]
                self._span(end_time, draw, *spans[0])
                for future in futures:
                    future.result()
        self._drawn = True
        # Per window, whatever the span count: the spans cover all R.
        obs.counter("sim.megabatch.invocations").inc()
        obs.histogram(
            "sim.megabatch.replications_per_invocation"
        ).observe(float(self.R))
        self._now = end_time

    def _span(self, end_time: float, draw: bool, lo: int, hi: int) -> None:
        """Replications ``[lo, hi)`` through ``end_time``, drawing their
        first chunks first when ``draw``.  ctypes releases the GIL for
        each call, so spans on separate threads run at the same time."""
        if draw:
            self._lib.mb_start(self._state, lo, hi)
        self._lib.mb_advance(self._state, end_time, lo, hi)
