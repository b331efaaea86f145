"""Finite FIFO buffers with loss accounting.

Two representations of the same finite FIFO live here:

:class:`FiniteBuffer`
    The heap engine's object buffer: a deque of :class:`Packet`
    instances with offer/peek/pop methods and occupancy statistics.

:class:`PacketRing`
    The batched lane's array buffer: a fixed-capacity circular store of
    the four scalars a queued packet actually needs — flow id, hop
    index, creation time, enqueue time — held in parallel slot lists.
    The hot loop binds the slot lists to locals and indexes them
    directly; the class only owns construction and inspection.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.errors import SimulationError
from repro.sim.packet import Packet


class FiniteBuffer:
    """A finite FIFO buffer owned by one bus client.

    ``capacity`` slots; :meth:`offer` returns False (and counts a loss)
    when the buffer is full — the core loss mechanism of the paper's
    model.
    """

    __slots__ = (
        "name",
        "capacity",
        "_queue",
        "offered",
        "lost",
        "accepted",
        "_area",
        "_last_change",
    )

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 0:
            raise SimulationError(
                f"buffer {name!r}: capacity must be >= 0, got {capacity}"
            )
        self.name = name
        self.capacity = capacity
        self._queue: Deque[Packet] = deque()
        self.offered = 0
        self.lost = 0
        self.accepted = 0
        # Time-weighted occupancy accumulator for mean-occupancy stats.
        self._area = 0.0
        self._last_change = 0.0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy(self) -> int:
        """Current number of queued packets."""
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.capacity

    # ------------------------------------------------------------------

    def _advance_area(self, now: float) -> None:
        self._area += len(self._queue) * (now - self._last_change)
        self._last_change = now

    def offer(self, packet: Packet, now: float) -> bool:
        """Try to enqueue; returns False and counts a loss when full."""
        self.offered += 1
        if self.is_full:
            self.lost += 1
            return False
        self._advance_area(now)
        packet.enqueued_at = now
        self._queue.append(packet)
        self.accepted += 1
        return True

    def peek(self) -> Packet:
        """Head-of-line packet without removing it."""
        if not self._queue:
            raise SimulationError(f"buffer {self.name!r} is empty")
        return self._queue[0]

    def pop(self, now: float) -> Packet:
        """Remove and return the head-of-line packet."""
        if not self._queue:
            raise SimulationError(f"buffer {self.name!r} is empty")
        self._advance_area(now)
        return self._queue.popleft()

    def mean_occupancy(self, now: float) -> float:
        """Time-average occupancy up to ``now``."""
        if now <= 0:
            return 0.0
        area = self._area + len(self._queue) * (now - self._last_change)
        return area / now


class PacketRing:
    """Array-native FIFO ring of queued packets for the batched lane.

    ``capacity`` slots; a queued packet occupies one slot across five
    parallel lists (``flow``/``hop``/``created``/``enqueued``/``scale``
    — the last caches the stored hop's inverse service rate so a grant
    reads one subscript instead of chasing the flow's hop table).  The
    batched simulation loop manipulates ``head``/``count`` and the slot
    lists directly — Python lists beat numpy here because every access
    is a single scalar — so this class deliberately has *no* per-packet
    methods on the hot path.  Capacity-zero rings are legal and always
    full (the simulator's "missing bridge buffer loses everything"
    convention).
    """

    __slots__ = ("name", "capacity", "flow", "hop", "created",
                 "enqueued", "scale", "head", "count")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 0:
            raise SimulationError(
                f"ring {name!r}: capacity must be >= 0, got {capacity}"
            )
        self.name = name
        self.capacity = capacity
        self.flow: List[int] = [0] * capacity
        self.hop: List[int] = [0] * capacity
        self.created: List[float] = [0.0] * capacity
        self.enqueued: List[float] = [0.0] * capacity
        self.scale: List[float] = [0.0] * capacity
        self.head = 0
        self.count = 0

    @property
    def occupancy(self) -> int:
        """Current number of queued packets."""
        return self.count

    def snapshot(self) -> List[Tuple[int, int, float, float]]:
        """Queued ``(flow, hop, created, enqueued)`` tuples in FIFO order.

        Inspection/testing helper — never called from the hot loop.
        """
        cap = self.capacity
        out = []
        for k in range(self.count):
            i = (self.head + k) % cap
            out.append(
                (self.flow[i], self.hop[i], self.created[i], self.enqueued[i])
            )
        return out
