"""Deterministic fault plans: *what* breaks, *where*, and *when*.

A :class:`FaultPlan` is an ordered set of :class:`FaultEvent`\\ s, each
naming a fault ``kind`` (worker crash, stall, slowdown, connection
refusal/drop, broker loss, cache-blob corruption/truncation), the hook
``site`` it strikes (the named injection points threaded through
``repro.dist`` and ``repro.exec.cache``), and the occurrence window it
fires in — the ``after``-th through ``after + count``-th matching hook
call.  Triggering on *call counts* rather than wall-clock keeps a plan
exactly reproducible: the third ``cache_get`` is the third ``cache_get``
on every machine and every run, which is what lets the chaos suite
assert bitwise-identical merges under every plan.

Plans serialise to plain JSON (:meth:`FaultPlan.to_jsonable` /
:meth:`FaultPlan.from_jsonable`), so the chaos harness can ship one to
forked worker processes through the ``REPRO_FAULT_PLAN`` environment
variable and the CLI can load one from a file.

In the spirit of property-based validation (DateSAT): a plan is an
adversarial input, "merges stay bitwise-identical to serial" is the
invariant, and :func:`repro.faults.chaos.run_chaos_matrix` is the
machine-checked quantifier over both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "FAULT_KINDS",
    "SITES",
    "FaultEvent",
    "FaultPlan",
    "standard_plans",
]

#: Every fault kind the injector knows how to perform.
FAULT_KINDS = (
    "worker_crash",     # os._exit mid-job (SIGKILL-equivalent)
    "worker_stall",     # job hangs AND heartbeats stop (frozen process)
    "worker_slow",      # job takes extra seconds (straggler)
    "connect_refuse",   # connection attempt refused
    "connection_drop",  # established connection torn mid-RPC
    "broker_loss",      # broker process dies mid-run (harness-level)
    "cache_corrupt",    # stored blob comes back with flipped bytes
    "cache_truncate",   # stored blob comes back short
)

#: The named injection hook sites threaded through the runtime.
#: ``chaos.broker`` is interpreted by the chaos harness (it stops the
#: broker process); every other site is an inline hook.
SITES = (
    "connect",              # BrokerConnection establishment
    "worker.lease",         # worker holding a lease just granted to it
    "worker.execute",       # worker about to run a leased job
    "worker.heartbeat",     # worker's liveness beat
    "executor.submit",      # driver submitting a batch
    "executor.fetch_ready", # driver polling results
    "cachetier.get",        # tier fetching a blob from the broker store
    "cachetier.put",        # tier publishing a blob to the broker store
    "cachetier.blob",       # blob bytes returned by the broker store
    "cache.entry",          # entry bytes read by the disk ResultCache
    "chaos.broker",         # harness-level broker kill
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault: ``kind`` strikes ``site`` on a window of calls.

    The event fires on matching hook calls number ``after`` through
    ``after + count - 1`` (zero-based, per-site counters);
    ``count=-1`` means "from ``after`` onwards, forever".  ``args``
    carries kind-specific knobs (``seconds`` for slowdowns/stalls,
    ``flips`` for corruption).
    """

    kind: str
    site: str
    after: int = 0
    count: int = 1
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )
        if self.site not in SITES:
            raise ReproError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {', '.join(SITES)}"
            )
        if self.after < 0:
            raise ReproError(f"after must be >= 0, got {self.after}")
        if self.count < -1 or self.count == 0:
            raise ReproError(
                f"count must be -1 (forever) or >= 1, got {self.count}"
            )

    def fires_on(self, occurrence: int) -> bool:
        """Whether this event fires on the given per-site call index."""
        if occurrence < self.after:
            return False
        return self.count == -1 or occurrence < self.after + self.count


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of fault events — one adversarial input.

    ``seed`` drives every random choice the injector makes (which
    bytes to flip, jitter on injected slowdowns), so the *plan object*
    fully determines the injected behaviour.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def for_site(self, site: str) -> List[FaultEvent]:
        """The plan's events striking one hook site, in plan order."""
        return [event for event in self.events if event.site == site]

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(event.kind for event in self.events))

    # -- serialisation (env var / CLI / artifacts) ---------------------

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [
                {
                    "kind": event.kind,
                    "site": event.site,
                    "after": event.after,
                    "count": event.count,
                    "args": dict(event.args),
                }
                for event in self.events
            ],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "FaultPlan":
        try:
            events = tuple(
                FaultEvent(
                    kind=entry["kind"],
                    site=entry["site"],
                    after=int(entry.get("after", 0)),
                    count=int(entry.get("count", 1)),
                    args=dict(entry.get("args", {})),
                )
                for entry in data.get("events", ())
            )
            return cls(
                events=events,
                seed=int(data.get("seed", 0)),
                name=str(data.get("name", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed fault plan: {exc!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"malformed fault plan JSON: {exc}")
        return cls.from_jsonable(data)


def standard_plans(seed: int = 0) -> Dict[str, FaultPlan]:
    """The standing chaos matrix: one named plan per fault mode.

    Every future fast path runs under these; the chaos suite and the
    CI ``chaos-smoke`` job iterate this dict.  Windows are chosen to
    strike early (the first jobs / first polls), when every batch is
    still in flight — the most adversarial moment.
    """

    def plan(name: str, *events: FaultEvent) -> FaultPlan:
        return FaultPlan(events=tuple(events), seed=seed, name=name)

    return {
        "worker-crash": plan(
            "worker-crash",
            FaultEvent("worker_crash", "worker.execute", after=1),
        ),
        "worker-stall": plan(
            "worker-stall",
            FaultEvent(
                "worker_stall",
                "worker.execute",
                after=1,
                args={"seconds": 600.0},
            ),
        ),
        "worker-slow": plan(
            "worker-slow",
            FaultEvent(
                "worker_slow",
                "worker.execute",
                after=0,
                count=-1,
                args={"seconds": 0.05},
            ),
        ),
        "connect-refuse": plan(
            "connect-refuse",
            FaultEvent("connect_refuse", "connect", after=0, count=2),
        ),
        "connection-drop": plan(
            "connection-drop",
            FaultEvent(
                "connection_drop", "executor.fetch_ready", after=2, count=2
            ),
        ),
        "lease-reply-drop": plan(
            "lease-reply-drop",
            FaultEvent("connection_drop", "worker.lease", after=1),
        ),
        "broker-loss": plan(
            "broker-loss",
            FaultEvent("broker_loss", "chaos.broker", after=1),
        ),
        "cache-corrupt": plan(
            "cache-corrupt",
            FaultEvent(
                "cache_corrupt", "cachetier.blob", after=0, count=-1
            ),
            FaultEvent(
                "cache_corrupt", "cache.entry", after=0, count=-1
            ),
        ),
        "cache-truncate": plan(
            "cache-truncate",
            FaultEvent(
                "cache_truncate", "cachetier.blob", after=0, count=-1
            ),
            FaultEvent(
                "cache_truncate", "cache.entry", after=0, count=-1
            ),
        ),
    }
