"""The fault injector: hook points, actions, and the fault log.

The runtime is threaded with *named hook sites* — one-line calls into
this module at every place a fault can strike::

    faults.fire("worker.execute", job_id=job_id)   # may raise/sleep/exit
    data = faults.transform("cache.entry", data)   # may damage bytes

With no injector installed (production, and every ordinary test) both
are a single ``None``-check.  The chaos harness installs a
:class:`FaultInjector` built from a :class:`~repro.faults.plan.FaultPlan`
— process-wide, like the active cache of :mod:`repro.dist.jobs` — and
forked workers inherit one through the ``REPRO_FAULT_PLAN`` environment
variable (:func:`install_from_env`, called by the worker loop).

Actions are deterministic functions of ``(plan, site, occurrence)``:

* ``worker_crash`` — ``os._exit`` mid-job, the SIGKILL-equivalent;
* ``worker_stall`` — the job hangs *and* the ``worker.heartbeat`` hook
  starts raising, so the heartbeat thread dies too: a frozen process,
  exactly what the broker's reaper must recover from;
* ``worker_slow`` — the job sleeps a little (a straggler);
* ``connect_refuse`` / ``connection_drop`` — stdlib connection errors
  raised at the transport hooks, which the
  :class:`~repro.retry.RetryPolicy` wrappers must absorb;
* ``cache_corrupt`` / ``cache_truncate`` — blob/entry bytes damaged
  (seeded byte flips / truncation), which the sha256 envelopes must
  quarantine.

Every fired event is recorded (and optionally appended to a log file),
so a chaos run leaves an auditable trail of what was injected when.
"""

from __future__ import annotations

import os
import threading
import time
from random import Random
from typing import Any, Dict, List, Optional

from repro import obs
from repro.faults.plan import FaultEvent, FaultPlan

__all__ = [
    "ENV_VAR",
    "FaultInjector",
    "active",
    "fire",
    "install",
    "install_from_env",
    "transform",
]

#: Environment variable carrying a JSON fault plan into subprocesses.
ENV_VAR = "REPRO_FAULT_PLAN"


class FaultInjector:
    """Executes one plan's events as hook calls arrive.

    Thread-safe: hook sites are hit concurrently (the worker's main
    loop and its heartbeat thread, the broker's connection threads).
    """

    def __init__(
        self, plan: FaultPlan, log_path: Optional[str] = None
    ) -> None:
        self.plan = plan
        self.log_path = log_path
        self.records: List[Dict[str, Any]] = []
        self.stalled = False
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._rng = Random(plan.seed)

    # -- bookkeeping ---------------------------------------------------

    def _next_occurrence(self, site: str) -> int:
        with self._lock:
            occurrence = self._counts.get(site, 0)
            self._counts[site] = occurrence + 1
            return occurrence

    def _matching(self, site: str, occurrence: int) -> List[FaultEvent]:
        return [
            event
            for event in self.plan.for_site(site)
            if event.fires_on(occurrence)
        ]

    def _record(self, event: FaultEvent, site: str, occurrence: int,
                detail: str, context: Optional[Dict[str, Any]] = None
                ) -> None:
        record = {
            "plan": self.plan.name,
            "kind": event.kind,
            "site": site,
            "occurrence": occurrence,
            "detail": detail,
            "pid": os.getpid(),
            "context": dict(context or {}),
        }
        obs.counter("faults.injected").inc()
        with self._lock:
            self.records.append(record)
            if self.log_path:
                # The hook's context (job id, worker id, ...) as
                # space-free key=value tokens after the detail.
                tokens = "".join(
                    " %s=%s" % (key, repr(value).replace(" ", ""))
                    for key, value in record["context"].items()
                )
                line = (
                    f"plan={record['plan']} kind={record['kind']} "
                    f"site={site} occurrence={occurrence} "
                    f"pid={record['pid']} {detail}{tokens}\n"
                )
                try:
                    with open(self.log_path, "a") as fh:
                        fh.write(line)
                except OSError:
                    pass  # a full disk must not turn logging into a fault

    # -- the two hook shapes -------------------------------------------

    def fire(self, site: str, **context: Any) -> None:
        """Action hook: may raise, sleep, or kill the process."""
        occurrence = self._next_occurrence(site)
        if site == "worker.heartbeat" and self.stalled:
            # A frozen process beats nothing: the heartbeat thread sees
            # a torn connection and exits, letting the reaper fire.
            raise ConnectionResetError("injected: heartbeat frozen")
        for event in self._matching(site, occurrence):
            if event.kind == "worker_crash":
                self._record(event, site, occurrence, "os._exit(17)", context)
                os._exit(17)
            if event.kind == "worker_stall":
                seconds = float(event.args.get("seconds", 600.0))
                self._record(
                    event, site, occurrence, f"stall {seconds}s", context
                )
                self.stalled = True
                time.sleep(seconds)
                self.stalled = False
                continue
            if event.kind == "worker_slow":
                seconds = float(event.args.get("seconds", 0.05))
                self._record(
                    event, site, occurrence, f"slow {seconds}s", context
                )
                time.sleep(seconds)
                continue
            if event.kind == "connect_refuse":
                self._record(event, site, occurrence, "refused", context)
                raise ConnectionRefusedError(
                    f"injected: connection refused at {site}"
                )
            if event.kind == "connection_drop":
                self._record(event, site, occurrence, "dropped", context)
                raise ConnectionResetError(
                    f"injected: connection dropped at {site}"
                )
            # broker_loss and the byte-damage kinds are not action
            # hooks: the harness and transform() own those.

    def transform(self, site: str, data: bytes) -> bytes:
        """Byte hook: may corrupt or truncate the passing blob."""
        occurrence = self._next_occurrence(site)
        for event in self._matching(site, occurrence):
            if event.kind == "cache_corrupt" and data:
                flips = int(event.args.get("flips", 3))
                # Seeded by (plan seed, site, occurrence): the same
                # plan damages the same bytes on every run.
                rng = Random(f"{self.plan.seed}:{site}:{occurrence}")
                damaged = bytearray(data)
                for _ in range(max(1, flips)):
                    index = rng.randrange(len(damaged))
                    damaged[index] ^= 0xFF
                self._record(
                    event, site, occurrence, f"flipped {flips} byte(s)"
                )
                data = bytes(damaged)
            elif event.kind == "cache_truncate" and data:
                keep = len(data) // 3
                self._record(
                    event, site, occurrence,
                    f"truncated {len(data)} -> {keep} bytes",
                )
                data = data[:keep]
        return data


#: Process-wide installed injector (None = all hooks are no-ops).
_ACTIVE: Optional[FaultInjector] = None


def install(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install the process-wide injector; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    return previous


def active() -> Optional[FaultInjector]:
    """The currently installed injector (``None`` = faults disabled)."""
    return _ACTIVE


def install_from_env() -> Optional[FaultInjector]:
    """Install a plan shipped via :data:`ENV_VAR` (worker startup).

    Returns the installed injector, or ``None`` when the variable is
    unset/empty.  The optional ``REPRO_FAULT_LOG`` names the log file.
    """
    text = os.environ.get(ENV_VAR, "")
    if not text:
        return None
    injector = FaultInjector(
        FaultPlan.from_json(text),
        log_path=os.environ.get("REPRO_FAULT_LOG") or None,
    )
    install(injector)
    return injector


def fire(site: str, **context: Any) -> None:
    """Module-level action hook (no-op without an installed injector)."""
    injector = _ACTIVE
    if injector is not None:
        injector.fire(site, **context)


def transform(site: str, data: bytes) -> bytes:
    """Module-level byte hook (identity without an installed injector)."""
    injector = _ACTIVE
    if injector is None:
        return data
    return injector.transform(site, data)
