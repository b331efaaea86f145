"""The mega-batch time-step kernel, in C-transliterable scalar form.

:func:`advance` drains every replication of one fleet cell through its
event calendar up to ``end_time``, operating exclusively on the flat
arrays laid out by :class:`repro.sim.megabatch.MegaBatchLane`.  It is a
line-for-line transliteration of the :class:`repro.sim.batched`
drain loop with a leading replication axis ``R``:

* the event calendar is a fixed ``(R, S + B)`` array — one pending
  arrival per source (columns ``0..S-1``) and at most one pending
  completion per bus (columns ``S..S+B-1``, ``+inf`` when idle) — so
  "pop the heap" becomes a linear ``(time, seq)`` scan;
* sequence numbers are assigned at exactly the batched lane's logical
  scheduling points, so same-timestamp ties dispatch identically;
* every float expression (``now + gap``, ``variate * scale``,
  ``now - enqueued`` accumulations) matches the batched lane's
  operation order, keeping fixed-seed metrics bitwise identical.

The function body is restricted to scalar arithmetic and array
subscripts so the *same source* serves two ways: interpreted (the
always-available correctness oracle, ``engine="python"``), and as the
reference for the C transliteration in :mod:`repro.sim._mbcc` (kept in
sync by the engine cross-equality tests).

Refill protocol — the kernel never draws randomness.  Before
dispatching an event it checks that every pre-drawn buffer the dispatch
could consume (the source's gap row; the service row of each bus a
grant might start on) still has a value.  If not, it sets
``paused[r]`` and moves to the next replication; the Python wrapper
refills exactly the exhausted rows (index == fill length, so no stream
tail is ever discarded) and re-enters.  The conservative pre-check can
pause on a draw the grant would not have made — harmless, because a
refill only moves draws earlier in wall time, never changes their
order within a stream.
"""

from __future__ import annotations

import numpy as np

#: Sequence sentinel for idle completion slots: larger than any real
#: event id, so an idle slot can never win a ``(time, seq)`` tie.
SEQ_SENTINEL = np.int64(2**62)

#: The lane arrays :func:`advance` takes after ``end_time`` and
#: ``timeout``, in argument order — also the pointer-field order of the
#: C kernel's ``mb_state`` struct (:mod:`repro.sim._mbcc`).
ARRAYS = (
    "cap", "slot_off", "ring_bus", "cl_off", "arb_kind", "flow_src",
    "flow_last", "flow_ring", "flow_scale", "first_bus", "ev_time",
    "ev_seq", "next_id", "head", "cnt", "busy", "granted", "rr_last",
    "sflow", "shop", "screa", "senq", "sscale", "svc", "svc_idx",
    "gaps", "gap_idx", "gap_len", "offered", "lost", "timed_out",
    "delivered", "wait_sum", "wait_cnt", "e2e_sum", "paused",
)


def advance(
    end_time,
    timeout,          # float; < 0 means "no timeout policy"
    cap,              # (G,)   ring capacities
    slot_off,         # (G+1,) ring -> first column in the slot arrays
    ring_bus,         # (G,)   ring -> owning bus
    cl_off,           # (B+1,) bus  -> first ring id (rings contiguous)
    arb_kind,         # (B,)   ARB_FIXED / ARB_ROUND_ROBIN / ARB_LONGEST
    flow_src,         # (S,)   flow -> source processor index
    flow_last,        # (S,)   flow -> last hop index
    flow_ring,        # (S,H)  flow x hop -> ring id (-1 padded)
    flow_scale,       # (S,H)  flow x hop -> 1/service_rate
    first_bus,        # (S,)   flow -> bus of its first ring
    ev_time,          # (R,W)  event calendar times, W = S + B
    ev_seq,           # (R,W)  event calendar sequence numbers
    next_id,          # (R,)   next sequence number
    head,             # (R,G)  ring head positions
    cnt,              # (R,G)  ring occupancies (the arbitration counts)
    busy,             # (R,B)  bus busy flags (0/1)
    granted,          # (R,B)  ring granted to the in-flight transaction
    rr_last,          # (R,B)  round-robin cursors
    sflow,            # (R,T)  slot: flow id
    shop,             # (R,T)  slot: hop index
    screa,            # (R,T)  slot: creation time
    senq,             # (R,T)  slot: enqueue time
    sscale,           # (R,T)  slot: cached 1/service_rate
    svc,              # (R,B,D) pre-drawn standard-exponential variates
    svc_idx,          # (R,B)  next unconsumed service variate
    gaps,             # (R,S,L) pre-drawn interarrival gaps
    gap_idx,          # (R,S)  next unconsumed gap
    gap_len,          # (R,S)  filled length of each gap row
    offered,          # (R,P)  per-processor counters...
    lost,
    timed_out,
    delivered,
    wait_sum,         # (R,)   waiting-time accumulator
    wait_cnt,         # (R,)
    e2e_sum,          # (R,)   end-to-end latency accumulator
    paused,           # (R,)   out: 1 where a refill is needed
):
    """Advance every replication to ``end_time`` or its next refill.

    Returns the number of replications that paused for a refill; zero
    means every replication's calendar is drained past ``end_time``.
    """
    R, W = ev_time.shape
    S = gap_idx.shape[1]
    D = svc.shape[2]
    INF = np.inf

    def _grant(r, b, now):
        # BatchedSystem's grant() with an explicit replication index:
        # arbitrate on occupancy counts, timeout-drop stale heads, then
        # start one transaction with a pre-drawn service variate.
        if busy[r, b] != 0:
            return
        kind = arb_kind[b]
        lo = cl_off[b]
        ncl = cl_off[b + 1] - lo
        while True:
            i = -1
            if kind == 2:  # longest queue (ties to lowest index)
                best = 0
                for j in range(ncl):
                    c = cnt[r, lo + j]
                    if c > best:
                        i = j
                        best = c
            elif kind == 0:  # fixed priority
                for j in range(ncl):
                    if cnt[r, lo + j] != 0:
                        i = j
                        break
            else:  # round robin
                j = rr_last[r, b]
                for _off in range(ncl):
                    j += 1
                    if j >= ncl:
                        j -= ncl
                    if cnt[r, lo + j] != 0:
                        rr_last[r, b] = j
                        i = j
                        break
            if i < 0:
                return
            g = lo + i
            h = head[r, g]
            si = slot_off[g] + h
            enq = senq[r, si]
            if timeout >= 0.0 and now - enq > timeout:
                f = sflow[r, si]
                nh = h + 1
                if nh == cap[g]:
                    nh = 0
                head[r, g] = nh
                cnt[r, g] -= 1
                src = flow_src[f]
                timed_out[r, src] += 1
                lost[r, src] += 1
                continue  # pick another; the bus stays free now
            wait_sum[r] += now - enq
            wait_cnt[r] += 1
            busy[r, b] = 1
            granted[r, b] = g
            sv = svc_idx[r, b]
            duration = svc[r, b, sv] * sscale[r, si]
            svc_idx[r, b] = sv + 1
            ev_time[r, S + b] = now + duration
            ev_seq[r, S + b] = next_id[r]
            next_id[r] += 1
            return

    npaused = 0
    for r in range(R):
        while True:
            # ---- pop-min over the fixed calendar: (time, seq) order
            bt = INF
            bs = SEQ_SENTINEL
            bj = -1
            for j in range(W):
                t = ev_time[r, j]
                if t < bt or (t == bt and ev_seq[r, j] < bs):
                    bt = t
                    bs = ev_seq[r, j]
                    bj = j
            if bj < 0 or bt > end_time:
                break  # this replication's window is drained
            if bj < S:
                # ---- arrival of source bj --------------------------
                s = bj
                if gap_idx[r, s] >= gap_len[r, s]:
                    paused[r] = 1
                    npaused += 1
                    break
                ab = first_bus[s]
                if svc_idx[r, ab] >= D:
                    paused[r] = 1
                    npaused += 1
                    break
                now = bt
                src = flow_src[s]
                offered[r, src] += 1
                g = flow_ring[s, 0]
                n = cnt[r, g]
                if n == cap[g]:
                    lost[r, src] += 1
                else:
                    pos = head[r, g] + n
                    c = cap[g]
                    if pos >= c:
                        pos -= c
                    si = slot_off[g] + pos
                    sflow[r, si] = s
                    shop[r, si] = 0
                    screa[r, si] = now
                    senq[r, si] = now
                    sscale[r, si] = flow_scale[s, 0]
                    cnt[r, g] = n + 1
                    if busy[r, ab] == 0:
                        _grant(r, ab, now)
                # Schedule the next arrival (the batched lane assigns
                # the next-arrival id after any grant it caused).
                gi = gap_idx[r, s]
                ev_time[r, s] = now + gaps[r, s, gi]
                ev_seq[r, s] = next_id[r]
                next_id[r] += 1
                gap_idx[r, s] = gi + 1
            else:
                # ---- completion on bus bj - S ----------------------
                b = bj - S
                if svc_idx[r, b] >= D:
                    paused[r] = 1
                    npaused += 1
                    break
                g = granted[r, b]
                h = head[r, g]
                si = slot_off[g] + h
                f = sflow[r, si]
                hp = shop[r, si]
                if hp != flow_last[f]:
                    b2 = ring_bus[flow_ring[f, hp + 1]]
                    if svc_idx[r, b2] >= D:
                        paused[r] = 1
                        npaused += 1
                        break
                now = bt
                created = screa[r, si]
                nh = h + 1
                if nh == cap[g]:
                    nh = 0
                head[r, g] = nh
                cnt[r, g] -= 1
                busy[r, b] = 0
                ev_time[r, S + b] = INF
                ev_seq[r, S + b] = SEQ_SENTINEL
                if hp == flow_last[f]:
                    delivered[r, flow_src[f]] += 1
                    e2e_sum[r] += now - created
                else:
                    hp += 1
                    g2 = flow_ring[f, hp]
                    n2 = cnt[r, g2]
                    if n2 == cap[g2]:
                        lost[r, flow_src[f]] += 1
                    else:
                        pos = head[r, g2] + n2
                        c2 = cap[g2]
                        if pos >= c2:
                            pos -= c2
                        s2 = slot_off[g2] + pos
                        sflow[r, s2] = f
                        shop[r, s2] = hp
                        screa[r, s2] = created
                        senq[r, s2] = now
                        sscale[r, s2] = flow_scale[f, hp]
                        cnt[r, g2] = n2 + 1
                        b2 = ring_bus[g2]
                        if busy[r, b2] == 0:
                            _grant(r, b2, now)
                _grant(r, b, now)
    return npaused
