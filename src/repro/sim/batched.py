"""Array-native batched simulation lane.

:class:`BatchedSystem` executes the *exact* stochastic system of
:class:`~repro.sim.system.CommunicationSystem` — same wiring, same seed
substreams, same event ordering, same statistics — but replaces the
per-event callback machinery with flat array state driven off a
:class:`~repro.sim.engine.BatchedSimulator`:

* arrivals are pre-drawn per source into gap arrays (chunked exactly
  like :class:`~repro.sim.processor.FlowSource` so traffic descriptors
  see the identical call sequence) and consumed by index;
* queued packets live in :class:`~repro.sim.buffer.PacketRing` slot
  arrays instead of :class:`~repro.sim.packet.Packet` objects;
* arbitration runs on per-cluster occupancy-count lists — the built-in
  deterministic policies are inlined in the drain loop, with
  :meth:`~repro.sim.arbiter.Arbiter.grant_counts` as the reference the
  inlined copies are held against (and the fallback for custom or
  randomised arbiters);
* deterministic-arbiter service variates are pre-taken in blocks via
  :meth:`~repro.sim.fastpath.ExponentialPool.take` and indexed from a
  flat array;
* loss/delivery counters are per-processor integer arrays, folded back
  into the shared :class:`~repro.sim.monitor.Monitor` after each
  :meth:`run_until` window.

The drain loop is the inlined form of repeated
:meth:`BatchedSimulator.pop_batch` calls: events pop in ``(time,
sequence)`` order, which dispatches a same-timestamp group in exactly
the grouped order ``pop_batch`` would hand back.

Determinism contract
--------------------
For a fixed seed the lane reproduces the heap engine *bitwise*: every
random draw happens through the same generator objects in the same
order, and events execute in the same ``(time, sequence)`` order —
sequence numbers are assigned at the same logical scheduling points the
heap engine assigns its event ids, so even exact-timestamp ties (e.g.
two sources with equal deterministic gaps) resolve identically.  This
holds for the deterministic arbiters (fixed priority, round robin,
longest queue), whose event order is total, and extends to
``weighted_random`` because
:meth:`~repro.sim.arbiter.WeightedRandomArbiter.grant_counts` performs
the identical generator calls; the *guaranteed* contract for randomised
arbiters is nevertheless only statistical equivalence (batch-means CI),
which is what the equivalence suite asserts for them.

All buffers — partially consumed gap arrays, service-variate blocks,
ring contents — persist across :meth:`run_until` calls, so a
warmup/measurement window split consumes the bit stream exactly like
one uninterrupted run (no pool is ever discarded mid-chunk).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.arbiter import (
    ARB_FIXED,
    ARB_GENERIC,
    ARB_LONGEST,
    ARB_ROUND_ROBIN,
    kernel_tag,
)
from repro.sim.buffer import PacketRing
from repro.sim.bus import ClusterState
from repro.sim.engine import BatchedSimulator
from repro.sim.system import CommunicationSystem

#: Service variates pre-taken per block on deterministic-arbiter buses.
#: Any value is stream-identical (the pool refills in its own chunks);
#: 512 matches the pool chunk so one take maps to one refill.
SERVICE_BLOCK = 512

# Inline-dispatch tags for the built-in deterministic arbiters; anything
# else goes through the generic grant_counts call.  Shared with the
# mega-batch kernel so both lanes agree on the encoding.
_FIXED, _ROUND_ROBIN, _LONGEST, _GENERIC = (
    ARB_FIXED,
    ARB_ROUND_ROBIN,
    ARB_LONGEST,
    ARB_GENERIC,
)


class BatchedSystem:
    """Run a wired :class:`CommunicationSystem` on the array lane.

    Parameters
    ----------
    system:
        A freshly built communication system.  Its buses, arbiters,
        RNG substreams and service pools are *adopted* (shared, not
        copied); the object-engine components are used for construction
        and final statistics only — no event must have run on
        ``system.simulator``.
    """

    def __init__(self, system: CommunicationSystem) -> None:
        if system.simulator.now != 0.0 or system.simulator.pending_events:
            raise SimulationError(
                "BatchedSystem must adopt an unstarted CommunicationSystem"
            )
        self.system = system
        self.sim = BatchedSimulator()
        self._started = False

        # -- global ring registry, cluster by cluster in arbiter order --
        self.rings: List[PacketRing] = []
        self.clusters: List[ClusterState] = []
        self._ring_cluster: List[int] = []  # ring id -> cluster index
        self._ring_pos: List[int] = []      # ring id -> index in cluster
        ring_id: Dict[str, int] = {}
        for b, bus in enumerate(system.buses):
            ids = []
            for pos, buf in enumerate(bus.buffers):
                gid = len(self.rings)
                self.rings.append(PacketRing(buf.name, buf.capacity))
                ring_id[buf.name] = gid
                self._ring_cluster.append(b)
                self._ring_pos.append(pos)
                ids.append(gid)
            self.clusters.append(ClusterState(bus, ids))

        # Every cluster shares one timeout threshold (system-level knob).
        self.timeout_threshold = (
            system.buses[0].timeout_threshold if system.buses else None
        )

        # -- flat ring state the hot loop binds to locals --
        self._ring_flow = [r.flow for r in self.rings]
        self._ring_hop = [r.hop for r in self.rings]
        self._ring_created = [r.created for r in self.rings]
        self._ring_enqueued = [r.enqueued for r in self.rings]
        self._ring_scale = [r.scale for r in self.rings]
        self._cap = [r.capacity for r in self.rings]
        self._head = [0] * len(self.rings)
        self._count = [0] * len(self.rings)

        # -- flat cluster state --
        self._cl_counts = [cs.counts for cs in self.clusters]
        self._cl_rings = [cs.ring_ids for cs in self.clusters]
        self._cl_names = [cs.names for cs in self.clusters]
        self._arbiters = [cs.arbiter for cs in self.clusters]
        self._arb_kind = [kernel_tag(cs.arbiter) for cs in self.clusters]
        self._cl_rng = [cs.rng for cs in self.clusters]
        self._cl_pool = [cs.pool for cs in self.clusters]
        self._busy = [False] * len(self.clusters)
        self._granted = [-1] * len(self.clusters)
        # Pre-taken service variates (deterministic arbiters only);
        # [] forces a take() on first grant.
        self._svc_buf: List[Optional[List[float]]] = [
            [] if cs.pool is not None else None for cs in self.clusters
        ]
        self._svc_idx = [0] * len(self.clusters)

        # -- flows (one source per flow, in system.sources order) --
        proc_names = sorted(system.topology.processors)
        self._proc_names = proc_names
        proc_index = {name: i for i, name in enumerate(proc_names)}
        self._flow_bufs: List[List[int]] = []
        self._flow_scale: List[List[float]] = []
        self._flow_last: List[int] = []
        self._flow_src: List[int] = []
        self._traffic = []
        self._src_rng = []
        self._src_batch: List[int] = []
        for source in system.sources:
            self._flow_bufs.append(
                [ring_id[hop.client] for hop in source.hops]
            )
            self._flow_scale.append(
                [1.0 / hop.service_rate for hop in source.hops]
            )
            self._flow_last.append(len(source.hops) - 1)
            self._flow_src.append(proc_index[source.flow.source])
            self._traffic.append(source.flow.traffic)
            self._src_rng.append(source.rng)
            self._src_batch.append(source.batch)
        self._flow_first = [bufs[0] for bufs in self._flow_bufs]
        self._flow_scale0 = [scales[0] for scales in self._flow_scale]
        self._gap_buf: List[List[float]] = [[] for _ in system.sources]
        self._gap_idx = [0] * len(system.sources)

        # -- counters (folded into the Monitor by _sync_monitor) --
        n = len(proc_names)
        self._offered = [0] * n
        self._lost = [0] * n
        self._timed_out = [0] * n
        self._delivered = [0] * n
        self._wait_sum = 0.0
        self._wait_cnt = 0
        self._e2e_sum = 0.0

    # ------------------------------------------------------------------

    @property
    def monitor(self):
        """The adopted system's monitor (synced after every window)."""
        return self.system.monitor

    def start(self) -> None:
        """Draw each source's first gap chunk and schedule first arrivals.

        Mirrors ``for source in system.sources: source.start()`` on the
        heap engine: chunks are drawn in source order with the sources'
        own generators, and the first arrivals receive sequence numbers
        ``0..S-1`` exactly like the heap engine's event ids.
        """
        if self._started:
            raise SimulationError("BatchedSystem already started")
        self._started = True
        push = self.sim.push
        for s, traffic in enumerate(self._traffic):
            gaps = traffic.sample_interarrivals(
                self._src_rng[s], self._src_batch[s]
            ).tolist()
            self._gap_buf[s] = gaps
            self._gap_idx[s] = 1
            push(0.0 + gaps[0], s)

    # ------------------------------------------------------------------

    def run_until(self, end_time: float) -> None:
        """Execute events through ``end_time`` and sync the monitor.

        Same boundary semantics as :meth:`Simulator.run_until`: events
        scheduled exactly at ``end_time`` execute, and the clock
        finishes at ``end_time``.  State (rings, gap buffers, service
        blocks) persists across calls, so consecutive windows are
        equivalent to one long run.
        """
        if not self._started:
            raise SimulationError("call start() before run_until()")
        sim = self.sim
        if end_time < sim.now:
            raise SimulationError(
                f"end time {end_time} is before now {sim.now}"
            )
        # ---- bind hot state to locals ------------------------------
        queue = sim._queue
        next_id = sim._next_id
        num_sources = len(self._traffic)
        ring_flow = self._ring_flow
        ring_hop = self._ring_hop
        ring_created = self._ring_created
        ring_enqueued = self._ring_enqueued
        ring_scale = self._ring_scale
        cap = self._cap
        head = self._head
        count = self._count
        ring_cluster = self._ring_cluster
        ring_pos = self._ring_pos
        cl_counts = self._cl_counts
        cl_rings = self._cl_rings
        cl_names = self._cl_names
        arbiters = self._arbiters
        arb_kind = self._arb_kind
        cl_rng = self._cl_rng
        cl_pool = self._cl_pool
        busy = self._busy
        granted = self._granted
        svc_buf = self._svc_buf
        svc_idx = self._svc_idx
        timeout = self.timeout_threshold
        flow_bufs = self._flow_bufs
        flow_scale = self._flow_scale
        flow_first = self._flow_first
        flow_scale0 = self._flow_scale0
        flow_last = self._flow_last
        flow_src = self._flow_src
        traffic = self._traffic
        src_rng = self._src_rng
        src_batch = self._src_batch
        gap_buf = self._gap_buf
        gap_idx = self._gap_idx
        offered = self._offered
        lost = self._lost
        timed_out = self._timed_out
        delivered = self._delivered
        wait_sum = self._wait_sum
        wait_cnt = self._wait_cnt
        e2e_sum = self._e2e_sum

        def grant(b: int, now: float) -> None:
            # ClusterBus._grant_next over arrays: arbitrate on the
            # occupancy counts, timeout-drop stale heads, then start one
            # transaction with a pre-taken (or, under randomised
            # arbitration, freshly drawn) service variate.  The three
            # built-in deterministic policies are inlined copies of
            # their grant_counts methods (cross-checked by the
            # equivalence tests); _GENERIC dispatches the real method.
            nonlocal wait_sum, wait_cnt, next_id
            if busy[b]:
                return
            kind = arb_kind[b]
            cnts = cl_counts[b]
            ids = cl_rings[b]
            while True:
                if kind == _LONGEST:
                    i = None
                    best = 0
                    for j, c in enumerate(cnts):
                        if c > best:
                            i = j
                            best = c
                elif kind == _FIXED:
                    i = None
                    for j, c in enumerate(cnts):
                        if c:
                            i = j
                            break
                elif kind == _ROUND_ROBIN:
                    arb = arbiters[b]
                    n = len(cnts)
                    j = arb._last
                    i = None
                    for _off in range(n):
                        j += 1
                        if j >= n:
                            j -= n
                        if cnts[j]:
                            arb._last = i = j
                            break
                else:
                    i = arbiters[b].grant_counts(
                        cnts, cl_names[b], now, cl_rng[b]
                    )
                if i is None:
                    return
                g = ids[i]
                h = head[g]
                enq = ring_enqueued[g][h]
                if timeout is not None and now - enq > timeout:
                    f = ring_flow[g][h]
                    nh = h + 1
                    head[g] = 0 if nh == cap[g] else nh
                    count[g] -= 1
                    cnts[i] -= 1
                    src = flow_src[f]
                    timed_out[src] += 1
                    lost[src] += 1
                    continue  # pick another; the bus stays free now
                wait_sum += now - enq
                wait_cnt += 1
                busy[b] = True
                granted[b] = g
                scale = ring_scale[g][h]
                block = svc_buf[b]
                if block is not None:
                    si = svc_idx[b]
                    if si >= len(block):
                        block = cl_pool[b].take(SERVICE_BLOCK).tolist()
                        svc_buf[b] = block
                        si = 0
                    svc_idx[b] = si + 1
                    duration = block[si] * scale
                else:
                    duration = cl_rng[b].exponential(scale)
                heappush(queue, (now + duration, next_id, num_sources + b))
                next_id += 1
                return

        # ---- drain loop --------------------------------------------
        # Inlined BatchedSimulator.pop_batch: events pop in (time,
        # sequence) order, so a same-timestamp batch dispatches in
        # exactly the grouped order pop_batch would return.
        while queue and queue[0][0] <= end_time:
            now, _seq, code = heappop(queue)
            if code < num_sources:
                # -- arrival of source `code` ------------------------
                s = code
                src = flow_src[s]
                offered[src] += 1
                g = flow_first[s]
                n = count[g]
                if n == cap[g]:
                    lost[src] += 1
                else:
                    pos = head[g] + n
                    c = cap[g]
                    if pos >= c:
                        pos -= c
                    ring_flow[g][pos] = s
                    ring_hop[g][pos] = 0
                    ring_created[g][pos] = now
                    ring_enqueued[g][pos] = now
                    ring_scale[g][pos] = flow_scale0[s]
                    count[g] = n + 1
                    b = ring_cluster[g]
                    cl_counts[b][ring_pos[g]] += 1
                    if not busy[b]:
                        grant(b, now)
                # Schedule the next arrival (the heap engine assigns
                # the next-arrival id after any grant it caused).
                gi = gap_idx[s]
                gaps = gap_buf[s]
                if gi >= len(gaps):
                    gaps = traffic[s].sample_interarrivals(
                        src_rng[s], src_batch[s]
                    ).tolist()
                    gap_buf[s] = gaps
                    gi = 0
                gap_idx[s] = gi + 1
                heappush(queue, (now + gaps[gi], next_id, s))
                next_id += 1
            else:
                # -- completion on bus `code - num_sources` ----------
                b = code - num_sources
                g = granted[b]
                h = head[g]
                f = ring_flow[g][h]
                hp = ring_hop[g][h]
                created = ring_created[g][h]
                nh = h + 1
                head[g] = 0 if nh == cap[g] else nh
                count[g] -= 1
                cl_counts[b][ring_pos[g]] -= 1
                busy[b] = False
                if hp == flow_last[f]:
                    delivered[flow_src[f]] += 1
                    e2e_sum += now - created
                else:
                    hp += 1
                    g2 = flow_bufs[f][hp]
                    n2 = count[g2]
                    if n2 == cap[g2]:
                        lost[flow_src[f]] += 1
                    else:
                        pos = head[g2] + n2
                        c2 = cap[g2]
                        if pos >= c2:
                            pos -= c2
                        ring_flow[g2][pos] = f
                        ring_hop[g2][pos] = hp
                        ring_created[g2][pos] = created
                        ring_enqueued[g2][pos] = now
                        ring_scale[g2][pos] = flow_scale[f][hp]
                        count[g2] = n2 + 1
                        b2 = ring_cluster[g2]
                        cl_counts[b2][ring_pos[g2]] += 1
                        if not busy[b2]:
                            grant(b2, now)
                grant(b, now)

        # ---- write back clock, ids, accumulators ------------------
        sim._next_id = next_id
        sim.advance_to(end_time)
        self._wait_sum = wait_sum
        self._wait_cnt = wait_cnt
        self._e2e_sum = e2e_sum
        for g, ring in enumerate(self.rings):
            ring.head = head[g]
            ring.count = count[g]
        self._sync_monitor()

    # ------------------------------------------------------------------

    def _sync_monitor(self) -> None:
        """Fold the array counters into the shared :class:`Monitor`.

        Only non-zero counts are written, mirroring the defaultdict
        behaviour of the heap lane's monitor (absent keys stay absent).
        """
        monitor = self.system.monitor
        names = self._proc_names
        for values, target in (
            (self._offered, monitor.offered),
            (self._lost, monitor.lost),
            (self._timed_out, monitor.timed_out),
            (self._delivered, monitor.delivered),
        ):
            for i, v in enumerate(values):
                if v:
                    target[names[i]] = v
        monitor.waiting_time_sum = self._wait_sum
        monitor.waiting_time_count = self._wait_cnt
        monitor.end_to_end_sum = self._e2e_sum
