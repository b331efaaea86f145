"""The mega-batch kernel: C source, on-demand build, ctypes binding.

``mb_advance`` drains a span ``[r0, r1)`` of one fleet cell's
replications through their event calendars up to ``end_time``,
operating exclusively on the flat arrays laid out by
:class:`repro.sim.megabatch.MegaBatchLane`.  It is a transliteration of
the batched lane's drain loop
(:meth:`repro.sim.batched.BatchedSystem.run_until`) with a leading
replication axis ``R``:

* the event calendar is a fixed ``(R, S + B)`` array — one pending
  arrival per source (columns ``0..S-1``) and at most one pending
  completion per bus (columns ``S..S+B-1``, ``+inf`` when idle) — so
  "pop the heap" becomes a linear, branch-free ``(time, seq)`` scan
  (calendar times are never negative, so their bit patterns order like
  their values);
* sequence numbers are assigned at exactly the batched lane's logical
  scheduling points, so same-timestamp ties dispatch identically;
* every float expression (``now + gap``, ``variate * scale``,
  ``now - enqueued`` accumulations) matches the batched lane's
  operation order, keeping fixed-seed metrics bitwise identical;
* replications share no state: a span call reads and writes only its
  own replications' rows, so disjoint spans may run on separate threads
  (the lane's windows do) with bitwise the output of one span.

Random variates — the kernel draws its own.  ``mb_seed`` gives every
replication the streams :class:`~repro.sim.system.CommunicationSystem`
would build: a port of ``SeedSequence(seed).spawn(B + S)`` (bus
streams first) and of numpy's PCG64 seeding, one ``rng[R, B + S, 4]``
row per stream (state hi/lo, increment hi/lo).  Every draw is then
numpy's own sampler — ``random_standard_exponential`` and friends from
the ``libnpyrandom.a`` that numpy ships for C extensions — on numpy's
own stream: a service duration is ``E * scale`` at each grant, and a
source refills its one ``batch``-gap chunk row, when exhausted, with a
port of its descriptor's ``sample_interarrivals(rng, batch)``
(``src_kind``: 0 Poisson, 1 hyperexponential, 2 on-off; parameters in
``src_par``, computed in Python exactly as the descriptors compute
them).  ``mb_start`` draws a span's first chunks and schedules its
first arrivals, so a simulation window is one ``mb_advance`` call per
span.

The source is compiled once with whatever system C compiler is present
(``$CC``, else ``cc``/``gcc``/``clang`` on PATH) against numpy's
headers and sampler library, cached under a hash of both, and exposed
through :mod:`ctypes`.  No compiler, no numpy C library or header, a
failed build (a compiler without ``__int128`` fails it), or
``REPRO_SIM_CC=0`` all degrade to ``None`` — mega-batch cells then run
through the batched lane per seed (bitwise the same results, counted in
``sim.megabatch.fallback.no_kernel``), so the C path is a pure
speedup, never a dependency.

Bitwise contract: the kernel is compiled with ``-ffp-contract=off`` so
no multiply-add is fused, and every float expression mirrors the
batched drain loop's and the descriptors' operation order on IEEE
doubles — x86-64 SSE2 double arithmetic then reproduces numpy float64
results bit for bit.  ``tests/test_megabatch.py`` holds the kernel to
that standard against the batched lane, the heap engine and numpy's
own generators.

All state crosses the boundary as one :class:`MBState` struct of
dimensions and array pointers, built once per lane; per-invocation
calls pass only the struct pointer, the window end time and the span,
keeping the hot path allocation-free.  ctypes releases the GIL for
every call.
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
from typing import List, Optional, Tuple

import numpy as np

#: The lane arrays in the pointer-field order of the C ``mb_state``
#: struct, after the dimensions and ``timeout``.
ARRAYS = (
    "cap", "slot_off", "ring_bus", "cl_off", "arb_kind", "flow_src",
    "flow_last", "flow_ring", "flow_scale", "first_bus", "src_kind",
    "src_par", "src_batch", "ev_time", "ev_seq", "next_id", "head",
    "cnt", "busy", "granted", "rr_last", "sflow", "shop", "screa",
    "senq", "sscale", "rng", "gaps", "gap_idx", "offered", "lost",
    "timed_out", "delivered", "wait_sum", "wait_cnt", "e2e_sum",
)

#: Doubles per source in ``src_par`` (the on-off sampler needs four);
#: the C source's ``SRC_PARAMS`` — keep the two in sync.
SRC_PARAMS = 4

_I64 = ctypes.c_longlong
_F64 = ctypes.c_double


class MBState(ctypes.Structure):
    """Mirror of the C ``mb_state`` struct — keep field order in sync.

    Array fields hold raw addresses (``ndarray.ctypes.data``): cheaper
    to assign per lane than typed pointers, and no less checked — the
    lane fixes every array's dtype and layout at construction.
    """

    _fields_ = (
        [(name, _I64) for name in "RSBGPWLH"]
        + [("timeout", _F64)]
        + [(name, ctypes.c_void_p) for name in ARRAYS]
        + [("T", _I64)]
    )


def entropy_words(seeds: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``(words, offsets)``: each seed's ``SeedSequence`` run entropy.

    A seed becomes its little-endian uint32 words (``0`` is ``[0]``),
    zero-padded to the pool size of 4 because every stream carries a
    spawn key — numpy's own assembly.  Replication ``r``'s words are
    ``words[offsets[r]:offsets[r + 1]]``.  A negative seed raises the
    ``ValueError`` ``SeedSequence`` raises.
    """
    words: List[int] = []
    offsets = [0]
    for seed in seeds:
        if seed < 0:
            raise ValueError("expected non-negative integer")
        own = [
            (seed >> shift) & 0xFFFFFFFF
            for shift in range(0, max(seed.bit_length(), 1), 32)
        ]
        words.extend(own + [0] * (4 - len(own)))
        offsets.append(len(words))
    return (
        np.array(words, dtype=np.uint32),
        np.array(offsets, dtype=np.int64),
    )


_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>
#include "numpy/random/bitgen.h"

/* numpy's samplers, from the libnpyrandom.a it ships for C extensions
 * (declared here: their header pulls in Python.h). */
double random_standard_uniform(bitgen_t *bitgen_state);
double random_standard_exponential(bitgen_t *bitgen_state);
double random_exponential(bitgen_t *bitgen_state, double scale);

/* Transliteration of the batched lane's drain loop
 * (repro/sim/batched.py:BatchedSystem.run_until) over R replications.
 * Field order must match the ctypes MBState mirror.  All 2-D/3-D
 * arrays are flat with C-contiguous strides taken from the dimensions
 * below. */

typedef struct {
    int64_t R, S, B, G, P, W, L, H;
    double timeout;
    const int64_t *cap, *slot_off, *ring_bus, *cl_off, *arb_kind;
    const int64_t *flow_src, *flow_last, *flow_ring;
    const double *flow_scale;
    const int64_t *first_bus;
    const int64_t *src_kind; const double *src_par;
    const int64_t *src_batch;
    double *ev_time; int64_t *ev_seq; int64_t *next_id;
    int64_t *head, *cnt, *busy, *granted, *rr_last;
    int64_t *sflow, *shop; double *screa, *senq, *sscale;
    uint64_t *rng;
    double *gaps; int64_t *gap_idx;
    int64_t *offered, *lost, *timed_out, *delivered;
    double *wait_sum; int64_t *wait_cnt; double *e2e_sum;
    int64_t T;
} mb_state;

#define SEQ_SENTINEL ((int64_t)1 << 62)
#define SRC_PARAMS 4

/* ---- numpy's PCG64 (numpy/random/src/pcg64/pcg64.h) ------------- */

typedef unsigned __int128 u128;

typedef struct { u128 state, inc; } pcg64;

#define PCG_MULT \
    (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static inline void pcg_step_(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
}

static uint64_t pcg_next64_(void *p)
{
    pcg64 *g = (pcg64 *)p;
    pcg_step_(g);
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (v >> rot) | (v << ((-rot) & 63));
}

static double pcg_next_double_(void *p)
{
    return (double)(pcg_next64_(p) >> 11) * (1.0 / 9007199254740992.0);
}

/* A stream's rng row is state hi, state lo, inc hi, inc lo. */
static inline pcg64 load_(const uint64_t *w)
{
    pcg64 g;
    g.state = ((u128)w[0] << 64) | w[1];
    g.inc = ((u128)w[2] << 64) | w[3];
    return g;
}

static inline void store_(uint64_t *w, const pcg64 *g)
{
    w[0] = (uint64_t)(g->state >> 64);
    w[1] = (uint64_t)g->state;
}

/* numpy's samplers only ever ask for 64-bit words and doubles. */
static inline bitgen_t bitgen_(pcg64 *g)
{
    bitgen_t bg = {g, pcg_next64_, 0, pcg_next_double_, pcg_next64_};
    return bg;
}

/* ---- SeedSequence(seed).spawn(n) + PCG64(child) ------------------
 * numpy/random/bit_generator.pyx: mix_entropy over run entropy
 * (zero-padded to the pool of 4) plus the spawn key [child], then
 * generate_state(4, uint64) and pcg64_set_seed. */

#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

static inline uint32_t hashmix_(uint32_t value, uint32_t *hc)
{
    value ^= *hc;
    *hc *= MULT_A;
    value *= *hc;
    value ^= value >> 16;
    return value;
}

static inline uint32_t mix_(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    result ^= result >> 16;
    return result;
}

static void seed_stream_(uint64_t *w, const uint32_t pool_in[4],
                         uint32_t hc, uint32_t child)
{
    uint32_t pool[4];
    for (int i = 0; i < 4; i++)
        pool[i] = pool_in[i];
    for (int i = 0; i < 4; i++)
        pool[i] = mix_(pool[i], hashmix_(child, &hc));
    uint32_t words[8];
    uint32_t hb = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i & 3];
        v ^= hb;
        hb *= MULT_B;
        v *= hb;
        v ^= v >> 16;
        words[i] = v;
    }
    uint64_t val[4];
    for (int i = 0; i < 4; i++)
        val[i] = (uint64_t)words[2 * i] | ((uint64_t)words[2 * i + 1] << 32);
    pcg64 g;
    g.state = 0;
    g.inc = ((((u128)val[2] << 64) | val[3]) << 1) | 1u;
    pcg_step_(&g);
    g.state += ((u128)val[0] << 64) | val[1];
    pcg_step_(&g);
    store_(w, &g);
    w[2] = (uint64_t)(g.inc >> 64);
    w[3] = (uint64_t)g.inc;
}

void mb_seed(mb_state *st, const uint32_t *words, const int64_t *off)
{
    const int64_t W = st->W;
    for (int64_t r = 0; r < st->R; r++) {
        const uint32_t *e = words + off[r];
        int64_t n = off[r + 1] - off[r];   /* >= 4: padded run entropy */
        /* Everything before the spawn key is common to the children. */
        uint32_t pool[4];
        uint32_t hc = INIT_A;
        for (int i = 0; i < 4; i++)
            pool[i] = hashmix_(e[i], &hc);
        for (int src = 0; src < 4; src++)
            for (int dst = 0; dst < 4; dst++)
                if (src != dst)
                    pool[dst] = mix_(pool[dst], hashmix_(pool[src], &hc));
        for (int64_t k = 4; k < n; k++)
            for (int dst = 0; dst < 4; dst++)
                pool[dst] = mix_(pool[dst], hashmix_(e[k], &hc));
        for (int64_t c = 0; c < W; c++)
            seed_stream_(st->rng + (r * W + c) * 4, pool, hc, (uint32_t)c);
    }
}

/* ---- one replication ----------------------------------------------
 * A span call works on one replication at a time: its rows of every
 * per-replication array, hoisted into restrict pointers, and its
 * running scalars, kept in locals for the whole window and written
 * back once at the end.  Replications share no state, so disjoint
 * spans may run on separate threads.  This form ran faster than
 * indexing st's arrays per event, on one thread as on two. */

typedef struct {
    double *restrict ev_time; int64_t *restrict ev_seq;
    int64_t *restrict head, *restrict cnt, *restrict busy;
    int64_t *restrict granted, *restrict rr_last;
    int64_t *restrict sflow, *restrict shop;
    double *restrict screa, *restrict senq, *restrict sscale;
    uint64_t *restrict rng;
    double *restrict gaps; int64_t *restrict gap_idx;
    int64_t *restrict offered, *restrict lost;
    int64_t *restrict timed_out, *restrict delivered;
    int64_t next_id, wait_cnt;
    double wait_sum, e2e_sum;
} rep_t;

static inline void rep_load_(const mb_state *st, int64_t r, rep_t *rp)
{
    const int64_t G = st->G, B = st->B, P = st->P, T = st->T;
    rp->ev_time = st->ev_time + r * st->W;
    rp->ev_seq = st->ev_seq + r * st->W;
    rp->head = st->head + r * G;
    rp->cnt = st->cnt + r * G;
    rp->busy = st->busy + r * B;
    rp->granted = st->granted + r * B;
    rp->rr_last = st->rr_last + r * B;
    rp->sflow = st->sflow + r * T;
    rp->shop = st->shop + r * T;
    rp->screa = st->screa + r * T;
    rp->senq = st->senq + r * T;
    rp->sscale = st->sscale + r * T;
    rp->rng = st->rng + r * st->W * 4;
    rp->gaps = st->gaps + r * st->S * st->L;
    rp->gap_idx = st->gap_idx + r * st->S;
    rp->offered = st->offered + r * P;
    rp->lost = st->lost + r * P;
    rp->timed_out = st->timed_out + r * P;
    rp->delivered = st->delivered + r * P;
    rp->next_id = st->next_id[r];
    rp->wait_cnt = st->wait_cnt[r];
    rp->wait_sum = st->wait_sum[r];
    rp->e2e_sum = st->e2e_sum[r];
}

static inline void rep_store_(const mb_state *st, int64_t r, const rep_t *rp)
{
    st->next_id[r] = rp->next_id;
    st->wait_cnt[r] = rp->wait_cnt;
    st->wait_sum[r] = rp->wait_sum;
    st->e2e_sum[r] = rp->e2e_sum;
}

/* ---- gap chunks: each descriptor's sample_interarrivals(rng, n) -- */

static void fill_gaps_(const mb_state *st, rep_t *rp, int64_t s)
{
    uint64_t *w = rp->rng + (st->B + s) * 4;
    pcg64 g = load_(w);
    bitgen_t bg = bitgen_(&g);
    const double *par = st->src_par + s * SRC_PARAMS;
    const int64_t n = st->src_batch[s];
    double *row = rp->gaps + s * st->L;
    if (st->src_kind[s] == 0) {
        /* Poisson: exponential(1 / rate, n) */
        for (int64_t k = 0; k < n; k++)
            row[k] = random_exponential(&bg, par[0]);
    } else if (st->src_kind[s] == 1) {
        /* Hyperexponential: where(random(n) < p, exponential(1 / rate1,
         * n), exponential(1 / rate2, n)); -1 marks a phase-2 slot (an
         * exponential variate is never negative). */
        for (int64_t k = 0; k < n; k++)
            row[k] = random_standard_uniform(&bg);
        for (int64_t k = 0; k < n; k++) {
            double e1 = random_exponential(&bg, par[1]);
            row[k] = row[k] < par[0] ? e1 : -1.0;
        }
        for (int64_t k = 0; k < n; k++) {
            double e2 = random_exponential(&bg, par[2]);
            if (row[k] < 0.0)
                row[k] = e2;
        }
    } else {
        /* On-off: a fresh phase, then the walk of OnOffTraffic._walk;
         * par = p_on, mean_on, mean_off, 1 / peak_rate. */
        int in_on = random_standard_uniform(&bg) < par[0];
        double left = random_exponential(&bg, in_on ? par[1] : par[2]);
        for (int64_t k = 0; k < n; k++) {
            double gap = 0.0;
            for (;;) {
                if (in_on) {
                    double candidate = random_exponential(&bg, par[3]);
                    if (candidate <= left) {
                        left -= candidate;
                        gap += candidate;
                        break;
                    }
                    gap += left;
                    in_on = 0;
                    left = random_exponential(&bg, par[2]);
                } else {
                    gap += left;
                    in_on = 1;
                    left = random_exponential(&bg, par[1]);
                }
            }
            row[k] = gap;
        }
    }
    store_(w, &g);
    rp->gap_idx[s] = 0;
}

/* Replications [r0, r1): draw every first chunk, schedule every first
 * arrival. */
void mb_start(mb_state *st, int64_t r0, int64_t r1)
{
    const int64_t S = st->S;
    for (int64_t r = r0; r < r1; r++) {
        rep_t rep;
        rep_load_(st, r, &rep);
        for (int64_t s = 0; s < S; s++) {
            fill_gaps_(st, &rep, s);
            rep.ev_time[s] = 0.0 + rep.gaps[s * st->L];
            rep.ev_seq[s] = s;
            rep.gap_idx[s] = 1;
        }
        rep.next_id = S;
        rep_store_(st, r, &rep);
    }
}

/* ---- the drain loop ---------------------------------------------- */

static void grant_(const mb_state *st, rep_t *rp, int64_t b, double now)
{
    if (rp->busy[b] != 0)
        return;
    int64_t kind = st->arb_kind[b];
    int64_t lo = st->cl_off[b];
    int64_t ncl = st->cl_off[b + 1] - lo;
    int64_t *restrict cnt = rp->cnt;
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
            int64_t j = rp->rr_last[b];
            for (int64_t o = 0; o < ncl; o++) {
                j += 1;
                if (j >= ncl) j -= ncl;
                if (cnt[lo + j] != 0) {
                    rp->rr_last[b] = j;
                    i = j;
                    break;
                }
            }
        }
        if (i < 0)
            return;
        int64_t g = lo + i;
        int64_t h = rp->head[g];
        int64_t si = st->slot_off[g] + h;
        double enq = rp->senq[si];
        if (st->timeout >= 0.0 && now - enq > st->timeout) {
            int64_t f = rp->sflow[si];
            int64_t nh = h + 1;
            if (nh == st->cap[g]) nh = 0;
            rp->head[g] = nh;
            cnt[g] -= 1;
            int64_t src = st->flow_src[f];
            rp->timed_out[src] += 1;
            rp->lost[src] += 1;
            continue;
        }
        rp->wait_sum += now - enq;
        rp->wait_cnt += 1;
        rp->busy[b] = 1;
        rp->granted[b] = g;
        uint64_t *w = rp->rng + b * 4;
        pcg64 pg = load_(w);
        bitgen_t bg = bitgen_(&pg);
        double duration = random_standard_exponential(&bg) * rp->sscale[si];
        store_(w, &pg);
        rp->ev_time[st->S + b] = now + duration;
        rp->ev_seq[st->S + b] = rp->next_id;
        rp->next_id += 1;
        return;
    }
}

/* Every calendar time is +0.0, a positive double or +inf (an idle
 * slot): arrivals land at now + gap and completions at now + E * scale,
 * with now, gap and E >= 0, scale > 0, and +0.0 + x is never -0.0.  On
 * those values the IEEE order is the order of the bit patterns read as
 * unsigned integers, so the calendar scan compares (time, seq) keys as
 * integers and keeps the running minimum with selects, not branches. */
#define INF_BITS 0x7ff0000000000000ULL

/* Replications [r0, r1) through end_time. */
void mb_advance(mb_state *st, double end_time, int64_t r0, int64_t r1)
{
    const int64_t S = st->S, W = st->W, H = st->H, L = st->L;
    const int64_t *restrict cap = st->cap;
    const int64_t *restrict slot_off = st->slot_off;
    const int64_t *restrict flow_src = st->flow_src;
    const int64_t *restrict flow_ring = st->flow_ring;
    const int64_t *restrict src_batch = st->src_batch;
    for (int64_t r = r0; r < r1; r++) {
        rep_t rep;
        rep_load_(st, r, &rep);
        for (;;) {
            uint64_t bk = INF_BITS;
            int64_t bs = SEQ_SENTINEL;
            int64_t bj = -1;
            for (int64_t j = 0; j < W; j++) {
                uint64_t k;
                memcpy(&k, rep.ev_time + j, sizeof k);
                int64_t q = rep.ev_seq[j];
                int better = (k < bk) | ((k == bk) & (q < bs));
                bk = better ? k : bk;
                bs = better ? q : bs;
                bj = better ? j : bj;
            }
            double bt;
            memcpy(&bt, &bk, sizeof bt);
            if (bj < 0 || bt > end_time)
                break;
            double now = bt;
            if (bj < S) {
                /* arrival of source bj */
                int64_t s = bj;
                int64_t ab = st->first_bus[s];
                int64_t src = flow_src[s];
                rep.offered[src] += 1;
                int64_t g = flow_ring[s * H];
                int64_t n = rep.cnt[g];
                if (n == cap[g]) {
                    rep.lost[src] += 1;
                } else {
                    int64_t pos = rep.head[g] + n;
                    int64_t c = cap[g];
                    if (pos >= c) pos -= c;
                    int64_t si = slot_off[g] + pos;
                    rep.sflow[si] = s;
                    rep.shop[si] = 0;
                    rep.screa[si] = now;
                    rep.senq[si] = now;
                    rep.sscale[si] = st->flow_scale[s * H];
                    rep.cnt[g] = n + 1;
                    if (rep.busy[ab] == 0)
                        grant_(st, &rep, ab, now);
                }
                if (rep.gap_idx[s] == src_batch[s])
                    fill_gaps_(st, &rep, s);
                int64_t gi = rep.gap_idx[s];
                rep.ev_time[s] = now + rep.gaps[s * L + gi];
                rep.ev_seq[s] = rep.next_id;
                rep.next_id += 1;
                rep.gap_idx[s] = gi + 1;
            } else {
                /* completion on bus bj - S */
                int64_t b = bj - S;
                int64_t g = rep.granted[b];
                int64_t h = rep.head[g];
                int64_t si = slot_off[g] + h;
                int64_t f = rep.sflow[si];
                int64_t hp = rep.shop[si];
                double created = rep.screa[si];
                int64_t nh = h + 1;
                if (nh == cap[g]) nh = 0;
                rep.head[g] = nh;
                rep.cnt[g] -= 1;
                rep.busy[b] = 0;
                rep.ev_time[S + b] = INFINITY;
                rep.ev_seq[S + b] = SEQ_SENTINEL;
                if (hp == st->flow_last[f]) {
                    rep.delivered[flow_src[f]] += 1;
                    rep.e2e_sum += now - created;
                } else {
                    hp += 1;
                    int64_t g2 = flow_ring[f * H + hp];
                    int64_t n2 = rep.cnt[g2];
                    if (n2 == cap[g2]) {
                        rep.lost[flow_src[f]] += 1;
                    } else {
                        int64_t pos = rep.head[g2] + n2;
                        int64_t c2 = cap[g2];
                        if (pos >= c2) pos -= c2;
                        int64_t s2 = slot_off[g2] + pos;
                        rep.sflow[s2] = f;
                        rep.shop[s2] = hp;
                        rep.screa[s2] = created;
                        rep.senq[s2] = now;
                        rep.sscale[s2] = st->flow_scale[f * H + hp];
                        rep.cnt[g2] = n2 + 1;
                        int64_t bb2 = st->ring_bus[g2];
                        if (rep.busy[bb2] == 0)
                            grant_(st, &rep, bb2, now);
                    }
                }
                grant_(st, &rep, b, now);
            }
        }
        rep_store_(st, r, &rep);
    }
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


def _sampler_library() -> str:
    """numpy's static sampler library, ``libnpyrandom.a``."""
    return os.path.join(
        os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a"
    )


def kernel_path(cc: str, library: str) -> str:
    """The cached shared object for this source, compiler and sampler.

    The name hashes the source, the compiler, the flags, numpy's
    version and the sampler library's size and mtime, so a numpy
    upgrade never loads a build linked against its predecessor.
    """
    info = os.stat(library)
    digest = hashlib.sha256(
        "\x00".join(
            [_SOURCE, cc, *_CFLAGS, np.__version__,
             str(info.st_size), str(info.st_mtime_ns)]
        ).encode()
    ).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"mbkernel-{digest}.so")


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first use.

    Returns ``None`` when the C path is unavailable: no compiler on
    PATH, numpy's sampler library or headers missing, the build failed
    (each warned once), or ``REPRO_SIM_CC=0``.  The shared object is
    cached under :func:`kernel_path`, so rebuilds happen only when the
    kernel, the compiler or numpy changes.
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
        try:
            library = _sampler_library()
            include = np.get_include()
            header = os.path.join(include, "numpy", "random", "bitgen.h")
            for path in (library, header):
                if not os.path.exists(path):
                    raise FileNotFoundError(f"no {path}")
            sofile = kernel_path(cc, library)
            if not os.path.exists(sofile):
                cache_dir = os.path.dirname(sofile)
                os.makedirs(cache_dir, exist_ok=True)
                src = sofile[: -len(".so")] + ".c"
                with open(src, "w") as fh:
                    fh.write(_SOURCE)
                tmp = sofile + f".tmp{os.getpid()}"
                subprocess.run(
                    [cc, *_CFLAGS, "-I", include, "-o", tmp, src,
                     library, "-lm"],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp, sofile)  # atomic: racing builds agree
            lib = ctypes.CDLL(sofile)
            state = ctypes.POINTER(MBState)
            lib.mb_seed.argtypes = [state, ctypes.c_void_p, ctypes.c_void_p]
            lib.mb_seed.restype = None
            lib.mb_start.argtypes = [state, _I64, _I64]
            lib.mb_start.restype = None
            lib.mb_advance.argtypes = [state, _F64, _I64, _I64]
            lib.mb_advance.restype = None
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
