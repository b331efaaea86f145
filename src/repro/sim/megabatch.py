"""Mega-batch replication lane: one array program per fleet cell.

:class:`MegaBatchLane` stacks ``R`` replications of one simulation cell
(same topology, capacities, arbiter and timeout — only the seed varies)
into flat arrays with a leading replication axis, so **one kernel
invocation advances every replication at once** instead of running the
batched lane ``R`` times:

* per-replication RNG streams are spawned exactly like
  :class:`~repro.sim.system.CommunicationSystem` (``SeedSequence(seed)
  .spawn(B + S)``, bus streams first), so every draw is bit-for-bit the
  stream the serial lanes would consume;
* interarrival gaps are pre-drawn per ``(replication, source)`` in
  source-batch-sized chunks — the identical
  ``sample_interarrivals(rng, batch)`` call sequence the heap engine's
  :class:`~repro.sim.processor.FlowSource` makes, which matters for
  descriptors that re-randomise per call;
* service variates are pre-taken through one
  :class:`~repro.sim.fastpath.ExponentialPool` per (bus, replication),
  stream-identical to the pool inside each replication's own bus;
* queued packets live in replication-stacked
  :func:`~repro.sim.buffer.replicated_slot_arrays` slot arrays, and the
  event calendar is a fixed ``(R, S + B)`` array (see
  :mod:`repro.sim._mbcc`).

The kernel has one body, the :mod:`repro.sim._mbcc` C build.  The lane
needs it: with no C kernel (no compiler, a failed build, or
``REPRO_SIM_CC=0``) construction raises :class:`SimulationError`.
The tests hold the kernel bitwise to the batched lane and to the heap
engine, so the kernel is *not* part of scenario cache keys.

The lane only takes the kernel path for configurations it can replay
exactly: deterministic arbiters (:data:`~repro.sim.arbiter
.KERNEL_ARBITERS`) and stateless traffic descriptors
(:attr:`~repro.arch.traffic.TrafficDescriptor.stateless_sampling`).
:func:`megabatch_supported` is the gate.  Unsupported cells — and every
cell on a host where no C kernel could be built — fall back to
sequential per-replication batched-lane runs in
:func:`repro.sim.runner.simulate_block`, which counts each fallback.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.arch.topology import Topology
from repro.errors import SimulationError
from repro.sim import _mbcc
from repro.sim.arbiter import KERNEL_ARBITERS
from repro.sim.batched import BatchedSystem
from repro.sim.buffer import replicated_slot_arrays
from repro.sim.fastpath import ExponentialPool
from repro.sim.monitor import Monitor
from repro.sim.system import CommunicationSystem

#: Gap chunks pre-drawn per (replication, source) between kernel
#: invocations.  Each chunk is one ``sample_interarrivals(rng, batch)``
#: call of exactly the source's batch size — never merged into one big
#: call, because descriptors may re-randomise per call (OnOffTraffic
#: draws a fresh phase each chunk).
GAP_CHUNKS = 4

#: Service variates pre-taken per (replication, bus) between kernel
#: invocations.  Any depth is stream-identical (the underlying pool
#: refills in its own chunks); 2048 = four pool chunks keeps refill
#: round-trips rare.
SVC_DEPTH = 2048

#: Sequence sentinel for idle completion slots: larger than any real
#: event id, so an idle slot can never win a ``(time, seq)`` tie.
SEQ_SENTINEL = np.int64(2**62)


def megabatch_supported(topology: Topology, arbiter_kind: str) -> bool:
    """Whether the kernel path can replay this cell exactly.

    Requires a deterministic arbiter (the kernel inlines those three
    policies) and stateless traffic descriptors (a stateful descriptor
    like TraceTraffic shares its replay cursor across replications, so
    draws must not be interleaved).  Unsupported cells still run through
    :func:`~repro.sim.runner.simulate_block` — via the sequential
    batched fallback.
    """
    if arbiter_kind not in KERNEL_ARBITERS:
        return False
    return all(
        flow.traffic.stateless_sampling
        for flow in topology.flows.values()
    )


class MegaBatchLane:
    """All replications of one simulation cell as a single array program.

    Parameters mirror :func:`repro.sim.runner.simulate`, except
    ``seeds`` — one per replication — replaces the single ``seed``.
    Construction builds one template system (structure only) plus the
    per-replication RNG streams; :meth:`start` schedules first arrivals;
    :meth:`run_until` advances every replication with kernel
    invocations, refilling pre-drawn buffers between them;
    :meth:`monitor_for` folds one replication's counters into a
    :class:`Monitor` for result extraction.  Raises
    :class:`SimulationError` when no C kernel can be built —
    :func:`repro.sim.runner.simulate_block` checks for that case first
    and takes its counted batched fallback instead.
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
                f"({KERNEL_ARBITERS}) and stateless traffic descriptors"
            )
        lib = _mbcc.load_kernel()
        if lib is None:
            raise SimulationError(
                "mega-batch engine 'cc' requested but no C kernel could "
                "be built (no compiler, failed build, or REPRO_SIM_CC=0)"
            )
        self.seeds = [int(s) for s in seeds]
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
        self.svc_depth = SVC_DEPTH
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
        self._traffic = list(ref._traffic)
        self._src_batch = [int(n) for n in ref._src_batch]

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

        self.svc = np.zeros((R, B, SVC_DEPTH))
        self.svc_idx = np.zeros((R, B), dtype=np.int64)
        max_batch = max(self._src_batch) if self._src_batch else 1
        self.gap_depth = GAP_CHUNKS * max_batch
        self.gaps = np.zeros((R, S, self.gap_depth))
        self.gap_idx = np.zeros((R, S), dtype=np.int64)
        self.gap_len = np.zeros((R, S), dtype=np.int64)
        for s, batch in enumerate(self._src_batch):
            self.gap_len[:, s] = GAP_CHUNKS * batch

        self.offered = np.zeros((R, P), dtype=np.int64)
        self.lost = np.zeros((R, P), dtype=np.int64)
        self.timed_out = np.zeros((R, P), dtype=np.int64)
        self.delivered = np.zeros((R, P), dtype=np.int64)
        self.wait_sum = np.zeros(R)
        self.wait_cnt = np.zeros(R, dtype=np.int64)
        self.e2e_sum = np.zeros(R)
        self.paused = np.zeros(R, dtype=np.int64)

        # -- per-replication RNG streams: the exact CommunicationSystem
        # layout — SeedSequence(seed).spawn(B + S), bus streams first,
        # then flow streams in sources order.  Each bus stream feeds one
        # ExponentialPool, which draws its first chunk at construction,
        # exactly like the pool inside every replication's ClusterBus.
        self._flow_rngs: List[List[np.random.Generator]] = []
        self._svc_pools: List[List[ExponentialPool]] = []
        for seed in self.seeds:
            children = np.random.SeedSequence(seed).spawn(B + S)
            self._svc_pools.append(
                [ExponentialPool(np.random.default_rng(c))
                 for c in children[:B]]
            )
            self._flow_rngs.append(
                [np.random.default_rng(c) for c in children[B:]]
            )

        self._started = False
        self._now = 0.0
        st = _mbcc.MBState(
            self.R, self.S, self.B, self.G, self.P, self.W,
            self.svc_depth, self.gap_depth, self.Hmax, self.timeout,
            *(getattr(self, name).ctypes.data for name in _mbcc.ARRAYS),
            self.T,
        )
        # The byref keeps the struct alive; the arrays it points at are
        # lane attributes, so they outlive every kernel call.
        ref = ctypes.byref(st)
        self._advance = lambda end: int(lib.mb_advance(ref, end))

    # ------------------------------------------------------------------

    def _refill_gaps(self, r: int, s: int) -> None:
        """Redraw source ``s``'s gap row for replication ``r``.

        ``GAP_CHUNKS`` separate batch-sized ``sample_interarrivals``
        calls — the serial lanes' exact call sequence, which stateful-
        per-call descriptors (phase re-randomisation) depend on.
        """
        traffic = self._traffic[s]
        rng = self._flow_rngs[r][s]
        batch = self._src_batch[s]
        row = self.gaps[r, s]
        for k in range(GAP_CHUNKS):
            row[k * batch : (k + 1) * batch] = (
                traffic.sample_interarrivals(rng, batch)
            )
        self.gap_idx[r, s] = 0

    def _refill_exhausted(self) -> None:
        for r, s in np.argwhere(self.gap_idx >= self.gap_len):
            self._refill_gaps(int(r), int(s))
        for r, b in np.argwhere(self.svc_idx >= self.svc_depth):
            self.svc[r, b] = self._svc_pools[r][b].take(self.svc_depth)
            self.svc_idx[r, b] = 0

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Draw first gap chunks and schedule every first arrival.

        First arrivals get sequence numbers ``0..S-1`` per replication,
        exactly like each replication's own heap engine.
        """
        if self._started:
            raise SimulationError("MegaBatchLane already started")
        self._started = True
        for r in range(self.R):
            for s in range(self.S):
                self._refill_gaps(r, s)
                self.ev_time[r, s] = 0.0 + self.gaps[r, s, 0]
                self.ev_seq[r, s] = s
                self.gap_idx[r, s] = 1
            self.next_id[r] = self.S
        for b in range(self.B):
            for r in range(self.R):
                self.svc[r, b] = self._svc_pools[r][b].take(self.svc_depth)

    def run_until(self, end_time: float) -> None:
        """Advance every replication through ``end_time``.

        Same boundary semantics as the serial lanes: events scheduled
        exactly at ``end_time`` execute.  Each kernel invocation runs
        until every replication is drained or paused for a refill; the
        wrapper refills exactly the exhausted rows and re-enters.
        Instrumentation is per invocation — the kernel itself stays
        allocation-free with obs disabled.
        """
        if not self._started:
            raise SimulationError("call start() before run_until()")
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before now {self._now}"
            )
        while True:
            self.paused[:] = 0
            with obs.span("sim.megabatch.kernel") as span:
                span.set("replications", self.R)
                npaused = self._advance(end_time)
            obs.counter("sim.megabatch.invocations").inc()
            obs.histogram(
                "sim.megabatch.replications_per_invocation"
            ).observe(float(self.R))
            if not npaused:
                break
            self._refill_exhausted()
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
