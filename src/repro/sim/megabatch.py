"""Mega-batch replication lane: one array program per fleet cell.

:class:`MegaBatchLane` stacks ``R`` replications of one simulation cell
(same topology, capacities, arbiter and timeout — only the seed varies)
into flat arrays with a leading replication axis, so **one kernel
invocation advances every replication at once** instead of running the
batched lane ``R`` times:

* every random variate is drawn inside the C kernel, on the streams
  :class:`~repro.sim.system.CommunicationSystem` would build
  (``SeedSequence(seed).spawn(B + S)``, bus streams first) and with
  numpy's own samplers, so every draw is bit-for-bit the one the serial
  lanes make (see :mod:`repro.sim._mbcc`);
* each source keeps one chunk row of exactly its batch size — the
  ``sample_interarrivals(rng, batch)`` call sequence of the heap
  engine's :class:`~repro.sim.processor.FlowSource`, which matters for
  descriptors that re-randomise per call (``OnOffTraffic`` draws a
  fresh phase each chunk);
* queued packets live in replication-stacked
  :func:`~repro.sim.buffer.replicated_slot_arrays` slot arrays, and the
  event calendar is a fixed ``(R, S + B)`` array.

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
Unsupported cells — ``TraceTraffic`` among them — and every cell on a
host where no C kernel could be built fall back to sequential
per-replication batched-lane runs in
:func:`repro.sim.runner.simulate_block`, which counts each fallback.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.arch.topology import Topology
from repro.arch.traffic import (
    HyperexponentialTraffic,
    OnOffTraffic,
    PoissonTraffic,
)
from repro.errors import SimulationError
from repro.sim import _mbcc
from repro.sim.arbiter import KERNEL_ARBITERS
from repro.sim.batched import BatchedSystem
from repro.sim.buffer import replicated_slot_arrays
from repro.sim.monitor import Monitor
from repro.sim.system import CommunicationSystem

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
    Construction builds one template system (structure only) and seeds
    every replication's streams in C; :meth:`start` draws the first gap
    chunks and schedules first arrivals; :meth:`run_until` advances
    every replication with one kernel call; :meth:`monitor_for` folds
    one replication's counters into a :class:`Monitor` for result
    extraction.  Raises :class:`SimulationError` when no C kernel can
    be built — :func:`repro.sim.runner.simulate_block` checks for that
    case first and takes its counted batched fallback instead — and
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
        lib = _mbcc.load_kernel()
        if lib is None:
            raise SimulationError(
                "mega-batch engine 'cc' requested but no C kernel could "
                "be built (no compiler, no numpy C library, failed "
                "build, or REPRO_SIM_CC=0)"
            )
        self.seeds = [int(s) for s in seeds]
        words, offsets = _mbcc.entropy_words(self.seeds)
        R = len(self.seeds)
        self.R = R

        # -- template system: structure only (wiring, scales, batches);
        # its RNG streams are never consumed.
        template = CommunicationSystem(
            topology,
            capacities,
            arbiter_kind=arbiter_kind,
            arbiter_weights=arbiter_weights,
            timeout_threshold=timeout_threshold,
            seed=0,
        )
        ref = BatchedSystem(template)
        S = len(ref._traffic)
        B = len(ref.clusters)
        G = len(ref.rings)
        P = len(ref._proc_names)
        self.S, self.B, self.G, self.P = S, B, G, P
        self.W = S + B
        self.proc_names: List[str] = list(ref._proc_names)
        self.timeout = (
            float(ref.timeout_threshold)
            if ref.timeout_threshold is not None
            else -1.0  # sentinel: ClusterBus validates real thresholds > 0
        )

        # -- static structure arrays ---------------------------------
        self.cap = np.asarray(ref._cap, dtype=np.int64)
        self.ring_bus = np.asarray(ref._ring_cluster, dtype=np.int64)
        # Rings are registered cluster by cluster, so each cluster's
        # ring ids are one contiguous ascending span — the kernel
        # depends on it, so verify rather than assume.
        cl_off = np.zeros(B + 1, dtype=np.int64)
        for b, ids in enumerate(ref._cl_rings):
            if list(ids) != list(range(ids[0], ids[0] + len(ids))):
                raise SimulationError(
                    f"cluster {b} ring ids are not contiguous: {ids}"
                )
            if int(ids[0]) != int(cl_off[b]):
                raise SimulationError(
                    f"cluster {b} rings do not continue the global span"
                )
            cl_off[b + 1] = ids[0] + len(ids)
        if int(cl_off[-1]) != G:
            raise SimulationError("cluster ring spans do not cover all rings")
        self.cl_off = cl_off
        arb = np.asarray(ref._arb_kind, dtype=np.int64)
        if arb.size and (arb.min() != arb.max()):
            raise SimulationError(
                "mega-batch kernel requires one arbiter policy per cell"
            )
        self.arb_kind = arb

        Hmax = max(len(bufs) for bufs in ref._flow_bufs)
        self.Hmax = Hmax
        self.flow_ring = np.zeros((S, Hmax), dtype=np.int64)
        self.flow_scale = np.zeros((S, Hmax))
        for s, (bufs, scales) in enumerate(
            zip(ref._flow_bufs, ref._flow_scale)
        ):
            self.flow_ring[s, : len(bufs)] = bufs
            self.flow_scale[s, : len(scales)] = scales
        self.flow_src = np.asarray(ref._flow_src, dtype=np.int64)
        self.flow_last = np.asarray(ref._flow_last, dtype=np.int64)
        self.first_bus = self.ring_bus[self.flow_ring[:, 0]]

        # -- per-source samplers: one chunk row of ``batch`` gaps each
        self.src_kind = np.zeros(S, dtype=np.int64)
        self.src_par = np.zeros((S, _mbcc.SRC_PARAMS))
        for s, traffic in enumerate(ref._traffic):
            kind, params = SAMPLERS[type(traffic)]
            self.src_kind[s] = kind
            par = params(traffic)
            self.src_par[s, : len(par)] = par
        self.src_batch = np.asarray(ref._src_batch, dtype=np.int64)
        self.gap_depth = int(self.src_batch.max())
        self.gaps = np.zeros((R, S, self.gap_depth))
        self.gap_idx = np.zeros((R, S), dtype=np.int64)
        # Streams in spawn order: buses 0..B-1, then sources.
        self.rng = np.zeros((R, self.W, 4), dtype=np.uint64)

        # -- replication-stacked dynamic state -----------------------
        self.slot_off, fields = replicated_slot_arrays(ref._cap, R)
        self.sflow = fields["flow"]
        self.shop = fields["hop"]
        self.screa = fields["created"]
        self.senq = fields["enqueued"]
        self.sscale = fields["scale"]
        self.T = int(self.slot_off[-1])

        self.ev_time = np.full((R, self.W), np.inf)
        self.ev_seq = np.full((R, self.W), SEQ_SENTINEL, dtype=np.int64)
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
        self._now = 0.0
        st = _mbcc.MBState(
            self.R, self.S, self.B, self.G, self.P, self.W,
            self.gap_depth, self.Hmax, self.timeout,
            *(getattr(self, name).ctypes.data for name in _mbcc.ARRAYS),
            self.T,
        )
        # The byref keeps the struct alive; the arrays it points at are
        # lane attributes, so they outlive every kernel call.
        state = ctypes.byref(st)
        lib.mb_seed(state, words.ctypes.data, offsets.ctypes.data)
        self._start = lambda: lib.mb_start(state)
        self._advance = lambda end: lib.mb_advance(state, end)

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Draw first gap chunks and schedule every first arrival.

        First arrivals get sequence numbers ``0..S-1`` per replication,
        exactly like each replication's own heap engine.
        """
        if self._started:
            raise SimulationError("MegaBatchLane already started")
        self._started = True
        self._start()

    def run_until(self, end_time: float) -> None:
        """Advance every replication through ``end_time``.

        Same boundary semantics as the serial lanes: events scheduled
        exactly at ``end_time`` execute.  One kernel invocation per
        window; instrumentation is per invocation — the kernel itself
        stays allocation-free with obs disabled.
        """
        if not self._started:
            raise SimulationError("call start() before run_until()")
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before now {self._now}"
            )
        with obs.span("sim.megabatch.kernel") as span:
            span.set("replications", self.R)
            self._advance(end_time)
        obs.counter("sim.megabatch.invocations").inc()
        obs.histogram(
            "sim.megabatch.replications_per_invocation"
        ).observe(float(self.R))
        self._now = end_time

    # ------------------------------------------------------------------

    def monitor_for(self, r: int) -> Monitor:
        """Replication ``r``'s statistics as a fresh :class:`Monitor`."""
        return Monitor.from_arrays(
            self.proc_names,
            self.offered[r],
            self.lost[r],
            self.timed_out[r],
            self.delivered[r],
            float(self.wait_sum[r]),
            int(self.wait_cnt[r]),
            float(self.e2e_sum[r]),
        )
