"""The mega-batch kernel: C source, on-demand build, ctypes binding.

``mb_advance`` drains every replication of one fleet cell through its
event calendar up to ``end_time``, operating exclusively on the flat
arrays laid out by :class:`repro.sim.megabatch.MegaBatchLane`.  It is a
transliteration of the batched lane's drain loop
(:meth:`repro.sim.batched.BatchedSystem.run_until`) with a leading
replication axis ``R``:

* the event calendar is a fixed ``(R, S + B)`` array — one pending
  arrival per source (columns ``0..S-1``) and at most one pending
  completion per bus (columns ``S..S+B-1``, ``+inf`` when idle) — so
  "pop the heap" becomes a linear ``(time, seq)`` scan;
* sequence numbers are assigned at exactly the batched lane's logical
  scheduling points, so same-timestamp ties dispatch identically;
* every float expression (``now + gap``, ``variate * scale``,
  ``now - enqueued`` accumulations) matches the batched lane's
  operation order, keeping fixed-seed metrics bitwise identical.

Refill protocol — the kernel never draws randomness.  Before
dispatching an event it checks that every pre-drawn buffer the dispatch
could consume (the source's gap row; the service row of each bus a
grant might start on) still has a value.  If not, it sets
``paused[r]`` and moves to the next replication; the lane refills
exactly the exhausted rows (index == fill length, so no stream tail is
ever discarded) and re-enters.  The conservative pre-check can pause on
a draw the grant would not have made — harmless, because a refill only
moves draws earlier in wall time, never changes their order within a
stream.

The source is compiled once with whatever system C compiler is present
(``$CC``, else ``cc``/``gcc``/``clang`` on PATH), cached under a
content hash, and exposed through :mod:`ctypes`.  No compiler, a failed
build, or ``REPRO_SIM_CC=0`` all degrade to ``None`` — mega-batch cells
then run through the batched lane per seed (bitwise the same results,
counted in ``sim.megabatch.fallback.no_kernel``), so the C path is a
pure speedup, never a dependency.

Bitwise contract: the kernel is compiled with ``-ffp-contract=off`` so
no multiply-add is fused, and every float expression mirrors the
batched drain loop's operation order on IEEE doubles — x86-64 SSE2
double arithmetic then reproduces numpy float64 results bit for bit.
``tests/test_megabatch.py`` holds the kernel to that standard against
the batched lane and the heap engine.

All state crosses the boundary as one :class:`MBState` struct of
dimensions and array pointers, built once per lane; per-invocation
calls pass only the struct pointer and the window end time, keeping
the hot path allocation-free.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from typing import Optional

#: The lane arrays in the pointer-field order of the C ``mb_state``
#: struct, after the dimensions and ``timeout``.
ARRAYS = (
    "cap", "slot_off", "ring_bus", "cl_off", "arb_kind", "flow_src",
    "flow_last", "flow_ring", "flow_scale", "first_bus", "ev_time",
    "ev_seq", "next_id", "head", "cnt", "busy", "granted", "rr_last",
    "sflow", "shop", "screa", "senq", "sscale", "svc", "svc_idx",
    "gaps", "gap_idx", "gap_len", "offered", "lost", "timed_out",
    "delivered", "wait_sum", "wait_cnt", "e2e_sum", "paused",
)

_I64 = ctypes.c_longlong
_F64 = ctypes.c_double


class MBState(ctypes.Structure):
    """Mirror of the C ``mb_state`` struct — keep field order in sync.

    Array fields hold raw addresses (``ndarray.ctypes.data``): cheaper
    to assign per lane than typed pointers, and no less checked — the
    lane fixes every array's dtype and layout at construction.
    """

    _fields_ = (
        [(name, _I64) for name in "RSBGPWDLH"]
        + [("timeout", _F64)]
        + [(name, ctypes.c_void_p) for name in ARRAYS]
        + [("T", _I64)]
    )


_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Transliteration of the batched lane's drain loop
 * (repro/sim/batched.py:BatchedSystem.run_until) over R replications.
 * Field order must match the ctypes MBState mirror.  All 2-D/3-D
 * arrays are flat with C-contiguous strides taken from the dimensions
 * below. */

typedef struct {
    int64_t R, S, B, G, P, W, D, L, H;
    double timeout;
    const int64_t *cap, *slot_off, *ring_bus, *cl_off, *arb_kind;
    const int64_t *flow_src, *flow_last, *flow_ring;
    const double *flow_scale;
    const int64_t *first_bus;
    double *ev_time; int64_t *ev_seq; int64_t *next_id;
    int64_t *head, *cnt, *busy, *granted, *rr_last;
    int64_t *sflow, *shop; double *screa, *senq, *sscale;
    const double *svc; int64_t *svc_idx;
    const double *gaps; int64_t *gap_idx; const int64_t *gap_len;
    int64_t *offered, *lost, *timed_out, *delivered;
    double *wait_sum; int64_t *wait_cnt; double *e2e_sum;
    int64_t *paused;
    int64_t T;
} mb_state;

#define SEQ_SENTINEL ((int64_t)1 << 62)

static void grant_(mb_state *st, int64_t r, int64_t b, double now)
{
    if (st->busy[r * st->B + b] != 0)
        return;
    int64_t kind = st->arb_kind[b];
    int64_t lo = st->cl_off[b];
    int64_t ncl = st->cl_off[b + 1] - lo;
    int64_t *cnt = st->cnt + r * st->G;
    for (;;) {
        int64_t i = -1;
        if (kind == 2) {            /* longest queue */
            int64_t best = 0;
            for (int64_t j = 0; j < ncl; j++) {
                int64_t c = cnt[lo + j];
                if (c > best) { i = j; best = c; }
            }
        } else if (kind == 0) {     /* fixed priority */
            for (int64_t j = 0; j < ncl; j++) {
                if (cnt[lo + j] != 0) { i = j; break; }
            }
        } else {                    /* round robin */
            int64_t j = st->rr_last[r * st->B + b];
            for (int64_t o = 0; o < ncl; o++) {
                j += 1;
                if (j >= ncl) j -= ncl;
                if (cnt[lo + j] != 0) {
                    st->rr_last[r * st->B + b] = j;
                    i = j;
                    break;
                }
            }
        }
        if (i < 0)
            return;
        int64_t g = lo + i;
        int64_t h = st->head[r * st->G + g];
        int64_t si = st->slot_off[g] + h;
        double enq = st->senq[r * st->T + si];
        if (st->timeout >= 0.0 && now - enq > st->timeout) {
            int64_t f = st->sflow[r * st->T + si];
            int64_t nh = h + 1;
            if (nh == st->cap[g]) nh = 0;
            st->head[r * st->G + g] = nh;
            cnt[g] -= 1;
            int64_t src = st->flow_src[f];
            st->timed_out[r * st->P + src] += 1;
            st->lost[r * st->P + src] += 1;
            continue;
        }
        st->wait_sum[r] += now - enq;
        st->wait_cnt[r] += 1;
        st->busy[r * st->B + b] = 1;
        st->granted[r * st->B + b] = g;
        int64_t sv = st->svc_idx[r * st->B + b];
        double duration =
            st->svc[(r * st->B + b) * st->D + sv] * st->sscale[r * st->T + si];
        st->svc_idx[r * st->B + b] = sv + 1;
        st->ev_time[r * st->W + st->S + b] = now + duration;
        st->ev_seq[r * st->W + st->S + b] = st->next_id[r];
        st->next_id[r] += 1;
        return;
    }
}

int64_t mb_advance(mb_state *st, double end_time)
{
    const int64_t R = st->R, S = st->S, W = st->W, D = st->D;
    int64_t npaused = 0;
    for (int64_t r = 0; r < R; r++) {
        for (;;) {
            double bt = INFINITY;
            int64_t bs = SEQ_SENTINEL;
            int64_t bj = -1;
            const double *evt = st->ev_time + r * W;
            const int64_t *evs = st->ev_seq + r * W;
            for (int64_t j = 0; j < W; j++) {
                double t = evt[j];
                if (t < bt || (t == bt && evs[j] < bs)) {
                    bt = t; bs = evs[j]; bj = j;
                }
            }
            if (bj < 0 || bt > end_time)
                break;
            if (bj < S) {
                /* arrival of source bj */
                int64_t s = bj;
                if (st->gap_idx[r * S + s] >= st->gap_len[r * S + s]) {
                    st->paused[r] = 1; npaused += 1; break;
                }
                int64_t ab = st->first_bus[s];
                if (st->svc_idx[r * st->B + ab] >= D) {
                    st->paused[r] = 1; npaused += 1; break;
                }
                double now = bt;
                int64_t src = st->flow_src[s];
                st->offered[r * st->P + src] += 1;
                int64_t g = st->flow_ring[s * st->H];
                int64_t n = st->cnt[r * st->G + g];
                if (n == st->cap[g]) {
                    st->lost[r * st->P + src] += 1;
                } else {
                    int64_t pos = st->head[r * st->G + g] + n;
                    int64_t c = st->cap[g];
                    if (pos >= c) pos -= c;
                    int64_t si = st->slot_off[g] + pos;
                    st->sflow[r * st->T + si] = s;
                    st->shop[r * st->T + si] = 0;
                    st->screa[r * st->T + si] = now;
                    st->senq[r * st->T + si] = now;
                    st->sscale[r * st->T + si] = st->flow_scale[s * st->H];
                    st->cnt[r * st->G + g] = n + 1;
                    if (st->busy[r * st->B + ab] == 0)
                        grant_(st, r, ab, now);
                }
                int64_t gi = st->gap_idx[r * S + s];
                st->ev_time[r * W + s] =
                    now + st->gaps[(r * S + s) * st->L + gi];
                st->ev_seq[r * W + s] = st->next_id[r];
                st->next_id[r] += 1;
                st->gap_idx[r * S + s] = gi + 1;
            } else {
                /* completion on bus bj - S */
                int64_t b = bj - S;
                if (st->svc_idx[r * st->B + b] >= D) {
                    st->paused[r] = 1; npaused += 1; break;
                }
                int64_t g = st->granted[r * st->B + b];
                int64_t h = st->head[r * st->G + g];
                int64_t si = st->slot_off[g] + h;
                int64_t f = st->sflow[r * st->T + si];
                int64_t hp = st->shop[r * st->T + si];
                if (hp != st->flow_last[f]) {
                    int64_t b2 =
                        st->ring_bus[st->flow_ring[f * st->H + hp + 1]];
                    if (st->svc_idx[r * st->B + b2] >= D) {
                        st->paused[r] = 1; npaused += 1; break;
                    }
                }
                double now = bt;
                double created = st->screa[r * st->T + si];
                int64_t nh = h + 1;
                if (nh == st->cap[g]) nh = 0;
                st->head[r * st->G + g] = nh;
                st->cnt[r * st->G + g] -= 1;
                st->busy[r * st->B + b] = 0;
                st->ev_time[r * W + S + b] = INFINITY;
                st->ev_seq[r * W + S + b] = SEQ_SENTINEL;
                if (hp == st->flow_last[f]) {
                    st->delivered[r * st->P + st->flow_src[f]] += 1;
                    st->e2e_sum[r] += now - created;
                } else {
                    hp += 1;
                    int64_t g2 = st->flow_ring[f * st->H + hp];
                    int64_t n2 = st->cnt[r * st->G + g2];
                    if (n2 == st->cap[g2]) {
                        st->lost[r * st->P + st->flow_src[f]] += 1;
                    } else {
                        int64_t pos = st->head[r * st->G + g2] + n2;
                        int64_t c2 = st->cap[g2];
                        if (pos >= c2) pos -= c2;
                        int64_t s2 = st->slot_off[g2] + pos;
                        st->sflow[r * st->T + s2] = f;
                        st->shop[r * st->T + s2] = hp;
                        st->screa[r * st->T + s2] = created;
                        st->senq[r * st->T + s2] = now;
                        st->sscale[r * st->T + s2] =
                            st->flow_scale[f * st->H + hp];
                        st->cnt[r * st->G + g2] = n2 + 1;
                        int64_t bb2 = st->ring_bus[g2];
                        if (st->busy[r * st->B + bb2] == 0)
                            grant_(st, r, bb2, now);
                    }
                }
                grant_(st, r, b, now);
            }
        }
    }
    return npaused;
}
"""

#: Flags chosen for speed *and* float fidelity: -ffp-contract=off
#: forbids fused multiply-add so C doubles follow the exact IEEE
#: operation sequence of the batched drain loop.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_lock = threading.Lock()
_cached: Optional[ctypes.CDLL] = None
_tried = False
_warned = False


def _compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_SIM_CC_DIR")
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), "repro-mbkernel")


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first use.

    Returns ``None`` when the C path is unavailable: no compiler on
    PATH, the build failed (warned once), or ``REPRO_SIM_CC=0``.
    The shared object is cached under a hash of source + compiler +
    flags, so rebuilds happen only when the kernel changes.
    """
    global _cached, _tried, _warned
    if os.environ.get("REPRO_SIM_CC", "1") == "0":
        return None
    with _lock:
        if _tried:
            return _cached
        _tried = True
        cc = _compiler()
        if cc is None:
            return None
        digest = hashlib.sha256(
            "\x00".join([_SOURCE, cc] + _CFLAGS).encode()
        ).hexdigest()[:16]
        cache_dir = _cache_dir()
        sofile = os.path.join(cache_dir, f"mbkernel-{digest}.so")
        try:
            if not os.path.exists(sofile):
                os.makedirs(cache_dir, exist_ok=True)
                src = os.path.join(cache_dir, f"mbkernel-{digest}.c")
                with open(src, "w") as fh:
                    fh.write(_SOURCE)
                tmp = sofile + f".tmp{os.getpid()}"
                subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp, src],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp, sofile)  # atomic: racing builds agree
            lib = ctypes.CDLL(sofile)
            lib.mb_advance.argtypes = [ctypes.POINTER(MBState), _F64]
            lib.mb_advance.restype = _I64
            _cached = lib
        except Exception as exc:  # degrade to the batched lane
            if not _warned:
                _warned = True
                warnings.warn(
                    f"mega-batch C kernel unavailable ({exc}); "
                    "falling back to the batched lane",
                    RuntimeWarning,
                    stacklevel=2,
                )
            _cached = None
        return _cached
