"""Loss, delivery and latency accounting.

Every lost packet is attributed to its **source processor**, wherever on
its route the loss occurred — that is how the paper's Figure 3 plots "loss
rates at the processors".  Waiting times are recorded per buffer so the
timeout policy can calibrate its threshold ("the average time spent by a
request in a buffer").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict

from repro.sim.packet import Packet


@dataclass
class Monitor:
    """Mutable statistics sink shared by all simulator components."""

    offered: DefaultDict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    lost: DefaultDict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    timed_out: DefaultDict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    delivered: DefaultDict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    waiting_time_sum: float = 0.0
    waiting_time_count: int = 0
    end_to_end_sum: float = 0.0

    def record_offered(self, packet: Packet) -> None:
        """A packet was generated by its source processor."""
        self.offered[packet.source] += 1

    def record_loss(self, packet: Packet) -> None:
        """A packet was dropped because a buffer was full."""
        self.lost[packet.source] += 1

    def record_timeout(self, packet: Packet) -> None:
        """A packet was dropped by the timeout service policy."""
        self.timed_out[packet.source] += 1
        self.lost[packet.source] += 1

    def record_service_start(self, packet: Packet, now: float) -> None:
        """A packet left a buffer and started its bus transaction."""
        self.waiting_time_sum += now - packet.enqueued_at
        self.waiting_time_count += 1

    def record_delivery(self, packet: Packet, now: float) -> None:
        """A packet completed its final hop."""
        self.delivered[packet.source] += 1
        self.end_to_end_sum += now - packet.created_at

    # ------------------------------------------------------------------

    def mean_waiting_time(self) -> float:
        """Average time packets spent queued before each service."""
        if self.waiting_time_count == 0:
            return 0.0
        return self.waiting_time_sum / self.waiting_time_count

    def mean_end_to_end(self) -> float:
        """Average source-to-delivery latency of delivered packets."""
        total_delivered = sum(self.delivered.values())
        if total_delivered == 0:
            return 0.0
        return self.end_to_end_sum / total_delivered

    def total_lost(self) -> int:
        """Total packets lost (full buffers plus timeouts)."""
        return sum(self.lost.values())

    def total_offered(self) -> int:
        """Total packets generated."""
        return sum(self.offered.values())

