"""Rendering for ``repro dist top`` — a live fleet console.

The renderer is a pure function from broker ``obs_snapshot()`` dicts to
a text frame, so tests (and ``--once`` mode) exercise exactly what the
interactive loop draws.  The loop itself lives in
:func:`repro.cli._cmd_dist_top`; it repaints in place with ANSI
clear-screen codes — no curses dependency, works in any VT100 terminal.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["render_top", "CLEAR_SCREEN"]

#: ANSI: cursor home + erase below — repaint without scrollback spam.
CLEAR_SCREEN = "\x1b[H\x1b[J"


def _rate(counters: Dict[str, int], hits_key: str, total_key: str) -> str:
    total = counters.get(total_key, 0)
    if not total:
        return "-"
    return "%.0f%%" % (100.0 * counters.get(hits_key, 0) / total)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return "%.0f%s" % (n, unit) if unit == "B" else "%.1f%s" % (n, unit)
        n /= 1024.0
    return "%.1fGiB" % n


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1.0:
        return "%.0fms" % (seconds * 1000.0)
    if seconds < 120.0:
        return "%.1fs" % seconds
    return "%.0fm" % (seconds / 60.0)


def render_top(
    snapshot: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    interval: Optional[float] = None,
    now_wall: Optional[float] = None,
) -> str:
    """Render one console frame from a broker ``obs_snapshot()``.

    ``previous`` (the prior frame's snapshot) and ``interval`` (seconds
    between them) turn cumulative per-worker job counts into live
    throughput columns; without them the rate column shows ``-``.
    ``now_wall`` pins "now" for the snapshot-age header (tests);
    default is the actual wall clock.
    """
    queue = snapshot.get("queue", {})
    cache = snapshot.get("cache", {})
    workers: Dict[str, Any] = snapshot.get("workers", {})
    fleet = snapshot.get("fleet", {}).get("counters", {})
    snap_time = snapshot.get("time", {})

    # Data age: how stale is the frame being looked at?  Computed from
    # the broker's wall stamp, so a console left on a dead connection
    # (or fed a cached snapshot) says so instead of posing as live.
    age_text = ""
    if "wall" in snap_time:
        age = max(
            (now_wall if now_wall is not None else time.time())
            - snap_time["wall"],
            0.0,
        )
        age_text = "  age %s" % _fmt_seconds(age)

    lines: List[str] = []
    lines.append(
        "repro dist top — workers %d  pending %d  leased %d  "
        "batches %d  completed %d%s"
        % (
            queue.get("workers", 0),
            queue.get("pending", 0),
            queue.get("leased", 0),
            queue.get("batches", 0),
            queue.get("completed", 0),
            age_text,
        )
    )
    lines.append(
        "queue: reaped %d  dropped-batches %d    "
        "faults: injected %d  retries %d"
        % (
            queue.get("reaped_jobs", 0),
            queue.get("dropped_batches", 0),
            fleet.get("faults.injected", 0),
            fleet.get("retry.retries", 0),
        )
    )
    lines.append(
        "shared cache: %d entries  %s  hit %s (%d/%d)  puts %d  evictions %d"
        % (
            cache.get("entries", 0),
            _fmt_bytes(cache.get("bytes", 0)),
            _rate(cache, "hits", "gets"),
            cache.get("hits", 0),
            cache.get("gets", 0),
            cache.get("puts", 0),
            cache.get("evictions", 0),
        )
    )
    lines.append(
        "worker caches: tier hit %s (memo %d + local %d + shared %d / %d)  "
        "publishes %d  remote-down %d"
        % (
            _rate(
                {
                    "hits": fleet.get("cachetier.hits", 0),
                    "gets": fleet.get("cachetier.hits", 0)
                    + fleet.get("cachetier.misses", 0),
                },
                "hits",
                "gets",
            ),
            fleet.get("cachetier.memo_hits", 0),
            fleet.get("cachetier.local_hits", 0),
            fleet.get("cachetier.shared_hits", 0),
            fleet.get("cachetier.hits", 0) + fleet.get("cachetier.misses", 0),
            fleet.get("cachetier.publishes", 0),
            fleet.get("cachetier.remote_down", 0),
        )
    )
    scheduler = snapshot.get("scheduler")
    if scheduler:
        # Older brokers don't ship this section; the console must keep
        # rendering their snapshots unchanged.
        cost = scheduler.get("cost", {})
        err = cost.get("mean_abs_rel_err")
        mean_lease = scheduler.get("mean_lease_size")
        uploads = queue.get("batched_uploads", 0)
        lines.append(
            "scheduler: pred-err %s  mean-lease %s"
            % (
                "%.0f%%" % (100.0 * err) if err is not None else "-",
                "%.1f" % mean_lease if mean_lease is not None else "-",
            )
        )
        lines.append(
            "transport: batched uploads %d  jobs/upload %s  "
            "model obs %d entr %d"
            % (
                uploads,
                "%.1f" % (queue.get("batched_jobs", 0) / uploads)
                if uploads
                else "-",
                cost.get("observations", 0),
                cost.get("entries", 0),
            )
        )
    runtime = (
        snapshot.get("broker", {})
        .get("histograms", {})
        .get("broker.job_runtime_seconds")
    )
    if runtime and runtime.get("count"):
        lines.append(
            "latency: job runtime p50 %s  p95 %s  p99 %s  (n=%d)"
            % (
                _fmt_seconds(runtime.get("p50", 0.0)),
                _fmt_seconds(runtime.get("p95", 0.0)),
                _fmt_seconds(runtime.get("p99", 0.0)),
                runtime["count"],
            )
        )
    lines.append("")
    lines.append(
        "%-22s %9s %8s %8s %8s %9s" % ("WORKER", "STATE", "JOBS", "FAILED", "JOBS/S", "TIER-HIT")
    )

    prev_workers: Dict[str, Any] = (previous or {}).get("workers", {})
    for worker_id in sorted(workers):
        info = workers[worker_id]
        alive = info.get("alive", False)
        counters = info.get("counters", {})
        jobs = counters.get("worker.jobs", 0)
        failed = counters.get("worker.jobs_failed", 0)
        rate = "-"
        if alive and interval and worker_id in prev_workers:
            prev_jobs = prev_workers[worker_id].get("counters", {}).get(
                "worker.jobs", 0
            )
            rate = "%.2f" % ((jobs - prev_jobs) / interval)
        tier_hit = _rate(
            {
                "hits": counters.get("cachetier.hits", 0),
                "gets": counters.get("cachetier.hits", 0)
                + counters.get("cachetier.misses", 0),
            },
            "hits",
            "gets",
        )
        # A reaped worker's totals stay (fleet sums must not shrink)
        # but its row must read as history, not telemetry: the state
        # carries how long ago it last beat (broker clock vs the
        # snapshot's own stamp) and the rate column never shows a
        # live-looking number.
        state = "up"
        if not alive:
            beat = info.get("last_beat")
            mono = snap_time.get("monotonic")
            if beat is not None and mono is not None:
                state = "gone %s" % _fmt_seconds(max(mono - beat, 0.0))
            else:
                state = "gone"
        lines.append(
            "%-22s %9s %8d %8d %8s %9s"
            % (
                worker_id[:22],
                state,
                jobs,
                failed,
                rate,
                tier_hit,
            )
        )
    if not workers:
        lines.append("  (no workers have reported metrics yet)")

    lines.append("")
    lines.append("q: quit   refresh: %.1fs" % (interval or 0.0))
    return "\n".join(lines) + "\n"
