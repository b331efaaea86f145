"""Event-heap simulation engine.

A minimal, dependency-free discrete-event core: events are ``[time,
sequence, callback, args]`` entries on a binary heap; ties in time break
by insertion order so runs are fully deterministic for a fixed seed.

Hot-path notes: entries are mutable lists so :meth:`Simulator.cancel`
tombstones in place (no separate cancelled-id set to leak), callbacks
take positional ``args`` so schedule sites need no closure allocation,
and a live-entry map keeps :attr:`Simulator.pending_events` exact.

Two event cores live here:

:class:`Simulator`
    The reference engine: one Python callback per heap pop.  Every
    component of :mod:`repro.sim.system` runs on it.

:class:`BatchedSimulator`
    The event core of the batched lane (:mod:`repro.sim.batched`).
    Events carry an opaque integer *code* instead of a callback, and
    :meth:`BatchedSimulator.pop_batch` drains **all events sharing the
    minimal timestamp in one step**, handing them back as one grouped
    code array in schedule order.  The caller dispatches the group over
    array state instead of the engine dispatching closures one by one.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[..., None]


class Simulator:
    """The simulation clock and event queue.

    Components schedule callbacks with :meth:`schedule` (relative delay)
    or :meth:`schedule_at` (absolute time); :meth:`run_until` advances the
    clock, executing events in order.
    """

    __slots__ = ("_now", "_queue", "_next_id", "_live")

    def __init__(self) -> None:
        self._now = 0.0
        # Heap entries: [when, event_id, callback, args].  The unique
        # event id breaks ties, so comparisons never reach the callback.
        self._queue: List[list] = []
        self._next_id = 0
        self._live: Dict[int, list] = {}

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of outstanding (scheduled, not executed, not
        cancelled) events — exact, excluding tombstoned entries."""
        return len(self._live)

    def schedule(self, delay: float, callback: Callback, *args) -> int:
        """Schedule ``callback(*args)`` to run ``delay`` time units from
        now.

        Returns an event id usable with :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, when: float, callback: Callback, *args) -> int:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self._now}"
            )
        event_id = self._next_id
        self._next_id = event_id + 1
        entry = [when, event_id, callback, args]
        self._live[event_id] = entry
        heapq.heappush(self._queue, entry)
        return event_id

    def cancel(self, event_id: int) -> None:
        """Cancel an outstanding event.

        Tombstones the heap entry in place; cancelling an id that
        already executed, was already cancelled, or was never scheduled
        is a harmless no-op (nothing is retained for it).
        """
        entry = self._live.pop(event_id, None)
        if entry is not None:
            entry[2] = None
            entry[3] = ()

    def run_until(self, end_time: float) -> None:
        """Execute events in order until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed.  The clock
        finishes at ``end_time`` even if the queue drains early.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before now {self._now}"
            )
        queue = self._queue
        live = self._live
        pop = heapq.heappop
        while queue and queue[0][0] <= end_time:
            when, event_id, callback, args = pop(queue)
            if callback is None:
                continue  # tombstoned by cancel()
            del live[event_id]
            self._now = when
            callback(*args)
        self._now = end_time

    def step(self) -> bool:
        """Execute exactly one event; returns False when queue is empty."""
        queue = self._queue
        while queue:
            when, event_id, callback, args = heapq.heappop(queue)
            if callback is None:
                continue
            del self._live[event_id]
            self._now = when
            callback(*args)
            return True
        return False


class BatchedSimulator:
    """Same-timestamp draining event core for the array lane.

    Events are ``(when, sequence, code)`` triples on a binary heap;
    ``code`` is an opaque non-negative integer the caller uses to look
    up what the event means (the batched lane encodes "arrival of
    source *s*" / "completion on bus *b*" into it).  Sequence numbers
    are assigned in :meth:`push` order, so the tie-breaking contract is
    identical to :class:`Simulator`: events at equal timestamps run in
    scheduling order.

    :meth:`pop_batch` is the drain mode: it removes **every** event
    sharing the earliest timestamp and returns them as one grouped code
    list (in sequence order) instead of dispatching one callback per
    pop.  With continuous interarrival and service distributions the
    group is almost always a single event; exact ties — sources with
    equal deterministic gaps, degenerate zero gaps — come out as one
    batch, which the caller can dispatch as a single array operation.

    There is no cancellation: the batched lane's pending set (one
    arrival per source, at most one completion per bus) never retracts
    an event, so the heap needs no tombstones or live-entry map.
    """

    __slots__ = ("_now", "_queue", "_next_id")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, int]] = []
        self._next_id = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of outstanding events."""
        return len(self._queue)

    def push(self, when: float, code: int) -> int:
        """Schedule event ``code`` at absolute time ``when``.

        Returns the sequence number (the deterministic tie-break key),
        mirroring the event ids :meth:`Simulator.schedule_at` hands out.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self._now}"
            )
        event_id = self._next_id
        self._next_id = event_id + 1
        heapq.heappush(self._queue, (when, event_id, code))
        return event_id

    def pop_batch(self, end_time: float) -> Optional[Tuple[float, List[int]]]:
        """Drain all events at the earliest timestamp ``<= end_time``.

        Returns ``(when, codes)`` with ``codes`` grouped in schedule
        order, advancing the clock to ``when`` — or None when the queue
        is empty or the next event lies beyond ``end_time`` (the clock
        is then left where it was; callers finish with
        :meth:`advance_to`).
        """
        queue = self._queue
        if not queue or queue[0][0] > end_time:
            return None
        pop = heapq.heappop
        when, _seq, code = pop(queue)
        codes = [code]
        while queue and queue[0][0] == when:
            codes.append(pop(queue)[2])
        self._now = when
        return when, codes

    def advance_to(self, end_time: float) -> None:
        """Move the clock to ``end_time`` (no events may remain before it)."""
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before now {self._now}"
            )
        if self._queue and self._queue[0][0] <= end_time:
            raise SimulationError(
                "cannot advance past pending events; drain with pop_batch"
            )
        self._now = end_time
