"""Packet sources: processors emitting their flows' request streams."""

from __future__ import annotations

import itertools
from typing import Callable, Optional

import numpy as np

from repro.arch.topology import Flow
from repro.sim.engine import Simulator
from repro.sim.packet import Hop, Packet


#: Interarrival gaps a source draws per ``sample_interarrivals`` call.
#: Every lane draws in chunks of this size, so descriptors that
#: re-randomise per call see one call sequence on all of them.
GAP_CHUNK = 256


class FlowSource:
    """Generates the packets of one flow.

    Draws interarrival times from the flow's traffic descriptor using its
    own RNG substream — refilled in chunks of ``batch`` so the per-event
    cost is one array index, not a generator call — stamps each packet
    with the flow's hop itinerary, and hands it to ``deliver`` (the
    system's injection point).
    """

    __slots__ = (
        "flow",
        "hops",
        "simulator",
        "rng",
        "deliver",
        "batch",
        "_gaps",
        "_gap_index",
    )

    _ids = itertools.count(1)

    def __init__(
        self,
        flow: Flow,
        hops: tuple,
        simulator: Simulator,
        rng: np.random.Generator,
        deliver: Callable[[Packet], None],
        batch: int = GAP_CHUNK,
    ) -> None:
        self.flow = flow
        self.hops = hops
        self.simulator = simulator
        self.rng = rng
        self.deliver = deliver
        self.batch = batch
        self._gaps: Optional[np.ndarray] = None
        self._gap_index = 0

    def start(self) -> None:
        """Schedule the first arrival."""
        self.simulator.schedule(self._next_gap(), self._arrive)

    def _next_gap(self) -> float:
        if self._gaps is None or self._gap_index >= len(self._gaps):
            self._gaps = self.flow.traffic.sample_interarrivals(
                self.rng, self.batch
            )
            self._gap_index = 0
        gap = float(self._gaps[self._gap_index])
        self._gap_index += 1
        return gap

    def _arrive(self) -> None:
        packet = Packet(
            packet_id=next(self._ids),
            flow=self.flow.name,
            source=self.flow.source,
            destination=self.flow.destination,
            hops=self.hops,
            created_at=self.simulator.now,
        )
        self.deliver(packet)
        self.simulator.schedule(self._next_gap(), self._arrive)
