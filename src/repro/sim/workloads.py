"""Trace-driven workloads: replaying recorded request streams.

Production traces are the gold standard the paper's "better profiling"
points at.  Real traces are proprietary (the substitution DESIGN.md
records), so this module provides both sides of the workflow:

* :class:`RequestTrace` — an explicit list of (time, flow) request
  events, loadable from a simple two-column text format,
* :class:`TraceTraffic` — a :class:`~repro.arch.traffic.TrafficDescriptor`
  that replays one flow's recorded interarrivals (cycling past the end,
  so finite traces drive arbitrarily long simulations),
* :func:`record_trace` — synthesise a trace *from* the library's own
  traffic models, closing the loop for tests and demos.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.arch.topology import Topology
from repro.arch.traffic import TrafficDescriptor
from repro.errors import ModelError


@dataclass(frozen=True)
class RequestTrace:
    """A recorded request stream: sorted (time, flow name) events."""

    events: Tuple[Tuple[float, str], ...]

    def __post_init__(self) -> None:
        times = [t for t, _f in self.events]
        if any(t < 0 for t in times):
            raise ModelError("trace times must be >= 0")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ModelError("trace events must be time-sorted")

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def horizon(self) -> float:
        """Time of the last event (0 for an empty trace)."""
        return self.events[-1][0] if self.events else 0.0

    def flows(self) -> List[str]:
        """Distinct flow names appearing in the trace, sorted."""
        return sorted({f for _t, f in self.events})

    def interarrivals(self, flow: str) -> np.ndarray:
        """Interarrival gaps of one flow (first gap from time zero)."""
        times = [t for t, f in self.events if f == flow]
        if not times:
            raise ModelError(f"trace has no events for flow {flow!r}")
        return np.diff([0.0] + times)

    def mean_rate(self, flow: str) -> float:
        """Empirical mean rate of one flow."""
        times = [t for t, f in self.events if f == flow]
        if not times:
            raise ModelError(f"trace has no events for flow {flow!r}")
        if times[-1] <= 0:
            raise ModelError(
                f"flow {flow!r} events all at time zero; rate undefined"
            )
        return len(times) / times[-1]

    # -- serialisation -----------------------------------------------------

    def dumps(self) -> str:
        """Two-column text form: ``<time> <flow>`` per line."""
        return "\n".join(f"{t!r} {f}" for t, f in self.events) + "\n"

    @classmethod
    def loads(cls, text: str) -> "RequestTrace":
        """Parse the two-column text form."""
        events: List[Tuple[float, str]] = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ModelError(
                    f"trace line {line_no}: expected '<time> <flow>'"
                )
            try:
                t = float(parts[0])
            except ValueError:
                raise ModelError(
                    f"trace line {line_no}: bad time {parts[0]!r}"
                ) from None
            events.append((t, parts[1]))
        return cls(tuple(events))


class TraceTraffic(TrafficDescriptor):
    """Replay one flow's recorded interarrival gaps.

    Cycles through the recorded gaps; the RNG argument of
    :meth:`sample_interarrivals` is unused (replay is deterministic) but
    kept for interface compatibility.  Each simulated source samples
    its own :meth:`fresh` copy, so every simulation replays the trace
    from its first gap, whatever ran before it.  The mega-batch kernel
    does not sample it, and its cells run per seed on the batched lane.
    """

    def __init__(self, gaps: Sequence[float]) -> None:
        arr = np.asarray(list(gaps), dtype=float)
        if arr.size == 0:
            raise ModelError("trace traffic needs at least one gap")
        if (arr < 0).any():
            raise ModelError("gaps must be >= 0")
        if arr.sum() <= 0:
            raise ModelError("gaps must have positive total duration")
        self._gaps = arr
        self._cursor = 0

    @property
    def mean_rate(self) -> float:
        return float(self._gaps.size / self._gaps.sum())

    def sample_interarrivals(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        if count < 0:
            raise ModelError(f"count must be >= 0, got {count}")
        # One gather instead of a per-gap Python loop: modular index
        # arithmetic reproduces the cycling cursor exactly, so replayed
        # gap sequences are unchanged for any chunking of the calls.
        gaps = self._gaps
        out = gaps[(self._cursor + np.arange(count)) % gaps.size]
        self._cursor = (self._cursor + count) % gaps.size
        return out

    def fresh(self) -> "TraceTraffic":
        """A copy whose replay cursor is at the first gap."""
        replay = copy.copy(self)
        replay._cursor = 0
        return replay

    def scaled(self, factor: float) -> "TraceTraffic":
        if factor <= 0:
            raise ModelError(f"scale factor must be > 0, got {factor}")
        return TraceTraffic(self._gaps / factor)


def record_trace(
    topology: Topology,
    duration: float,
    seed: int = 0,
) -> RequestTrace:
    """Synthesise a request trace from a topology's traffic models."""
    if duration <= 0:
        raise ModelError(f"duration must be > 0, got {duration}")
    rng_root = np.random.SeedSequence(seed)
    streams = rng_root.spawn(len(topology.flows))
    events: List[Tuple[float, str]] = []
    for stream, flow_name in zip(streams, sorted(topology.flows)):
        flow = topology.flows[flow_name]
        rng = np.random.default_rng(stream)
        t = 0.0
        while True:
            gap = float(flow.traffic.sample_interarrivals(rng, 1)[0])
            t += gap
            if t > duration:
                break
            events.append((t, flow_name))
    events.sort(key=lambda e: (e[0], e[1]))
    return RequestTrace(tuple(events))


def replay_topology(topology: Topology, trace: RequestTrace) -> Topology:
    """A copy of ``topology`` whose flows replay the trace.

    Flows absent from the trace are dropped (they generated nothing in
    the recorded window).
    """
    replayed = Topology(f"{topology.name}-replay")
    for bus in topology.buses.values():
        replayed.add_bus(bus.name)
    for link in topology.links:
        replayed.add_link(link.bus_a, link.bus_b)
    for bridge in topology.bridges.values():
        replayed.add_bridge(
            bridge.name, bridge.bus_a, bridge.bus_b,
            service_rate=bridge.service_rate,
            loss_weight=bridge.loss_weight,
        )
    for proc in topology.processors.values():
        replayed.add_processor(
            proc.name, proc.bus, proc.service_rate, proc.loss_weight
        )
    traced_flows = set(trace.flows())
    for name, flow in topology.flows.items():
        if name not in traced_flows:
            continue
        replayed.add_flow(
            name,
            flow.source,
            flow.destination,
            TraceTraffic(trace.interarrivals(name)),
        )
    replayed.validate()
    return replayed
