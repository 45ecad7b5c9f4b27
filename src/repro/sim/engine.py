"""A minimal deterministic discrete-event simulation engine.

The engine is a priority queue of ``(time_us, priority, sequence, handle,
callback)`` entries.  Ties in time are broken first by ``priority`` (lower
fires first; almost everything uses the default 0) and then by insertion
order, which makes runs fully deterministic for a given seed.  Components
schedule callbacks either at an absolute time (:meth:`Simulator.at`) or
after a delay (:meth:`Simulator.call_later`); both return a cancellable
:class:`EventHandle`.

Most events are fire-and-forget: a packet arrival, a deferred enqueue, a
frame render.  Nobody keeps their handle, so :meth:`Simulator.post`
schedules them without allocating one.  A posted event cannot be
cancelled; it draws its ``(time, 0, sequence)`` key from the same counter
as :meth:`Simulator.at`, so switching a call site between the two moves no
event.

Priorities exist for one reason: a component that *elides* events (the RAN
slot loop skipping idle slots) must be able to re-insert an event later and
still fire in the same position among same-timestamp events as the
non-eliding reference path.  Insertion order cannot provide that — the
re-inserted event would have a fresh sequence number — so such components
run at a reserved negative priority instead.

Recurring activities (TDD slot clocks, frame-capture clocks, RTCP timers)
use :meth:`Simulator.every`, which returns a handle that can be cancelled.
Recurrence is handled by the run loop itself re-inserting a slotted
:class:`EventHandle` — there is no per-tick closure allocation.

Cancellation is lazy (entries stay in the heap and are skipped when
popped), but the engine keeps a live-event counter so
:meth:`Simulator.pending_events` reports the true queue depth, and the heap
self-compacts when cancelled entries outnumber live ones.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from .units import TimeUs

Callback = Callable[[], None]

#: Heap entries below this many dead records never trigger compaction.
_COMPACT_FLOOR = 64

#: The horizon :meth:`Simulator.run` drains to: later than every event.
_FOREVER = float("inf")


class EventHandle:
    """Handle for a scheduled event; supports cancellation.

    Cancellation is lazy: the entry stays in the heap but is skipped when
    popped.  This keeps scheduling O(log n) with no heap surgery; the
    simulator's live counter and compaction keep the bookkeeping honest.
    """

    __slots__ = ("cancelled", "_sim", "_queued")

    #: Recurrence period; 0 on one-shot events.  Instances of
    #: :class:`_RecurringEvent` shadow this with their real period.
    period_us: TimeUs = 0

    def __init__(self) -> None:
        self.cancelled = False
        self._sim: Optional["Simulator"] = None
        self._queued = False

    def cancel(self) -> None:
        """Prevent the event (and, for recurring events, all repeats) from firing."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queued and self._sim is not None:
            self._sim._note_cancelled()


class _RecurringEvent(EventHandle):
    """Slotted recurring event: the run loop re-inserts it each period.

    Replaces the historical ``fire_and_reschedule`` closure pair — one
    object for the event's whole lifetime instead of two closures per tick.
    """

    __slots__ = ("period_us",)

    def __init__(self, period_us: TimeUs) -> None:
        super().__init__()
        self.period_us = period_us


#: The handle slot of every posted event.  It is never handed out, so it is
#: never cancelled; its ``period_us`` of 0 makes the run loop fire it once.
_POSTED = EventHandle()


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator with microsecond resolution."""

    def __init__(self) -> None:
        self._now: TimeUs = 0
        self._seq = itertools.count()
        self._queue: List[
            Tuple[TimeUs, int, int, EventHandle, Callback]
        ] = []
        self._live = 0  # queued entries whose handle is not cancelled
        self._running = False

    @property
    def now(self) -> TimeUs:
        """Current simulation time in microseconds."""
        return self._now

    def at(
        self,
        time_us: TimeUs,
        callback: Callback,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time.

        ``priority`` orders same-timestamp events (lower fires first) ahead
        of insertion order; leave it at 0 unless you are re-creating an
        elided event stream that must keep its position.
        """
        if time_us < self._now:
            raise SimulationError(
                f"cannot schedule at {time_us} us; current time is {self._now} us"
            )
        handle = EventHandle()
        self._push(time_us, priority, handle, callback)
        return handle

    def post(self, time_us: TimeUs, callback: Callback) -> None:
        """Schedule a one-shot ``callback`` at ``time_us``; no handle, no cancel.

        Fires exactly where ``at(time_us, callback)`` would: same priority
        (0), same insertion counter.  Use it whenever the handle would be
        thrown away.
        """
        if time_us < self._now:
            raise SimulationError(
                f"cannot schedule at {time_us} us; current time is {self._now} us"
            )
        self._live += 1
        heapq.heappush(
            self._queue, (time_us, 0, next(self._seq), _POSTED, callback)
        )

    def call_later(self, delay_us: TimeUs, callback: Callback) -> EventHandle:
        """Schedule ``callback`` after ``delay_us`` microseconds."""
        if delay_us < 0:
            raise SimulationError(f"negative delay: {delay_us}")
        return self.at(self._now + delay_us, callback)

    def every(
        self,
        period_us: TimeUs,
        callback: Callback,
        start_us: Optional[TimeUs] = None,
    ) -> EventHandle:
        """Schedule ``callback`` to run every ``period_us``, starting at ``start_us``.

        Returns a single handle; cancelling it stops all future repeats.
        """
        if period_us <= 0:
            raise SimulationError(f"period must be positive: {period_us}")
        first = self._now if start_us is None else start_us
        if first < self._now:
            raise SimulationError(
                f"cannot schedule at {first} us; current time is {self._now} us"
            )
        handle = _RecurringEvent(period_us)
        self._push(first, 0, handle, callback)
        return handle

    # ------------------------------------------------------------------
    # Heap internals
    # ------------------------------------------------------------------
    def _push(
        self,
        time_us: TimeUs,
        priority: int,
        handle: EventHandle,
        callback: Callback,
    ) -> None:
        handle._sim = self
        handle._queued = True
        self._live += 1
        heapq.heappush(
            self._queue, (time_us, priority, next(self._seq), handle, callback)
        )

    def _note_cancelled(self) -> None:
        """A queued entry's handle was cancelled; keep the live count true."""
        self._live -= 1
        dead = len(self._queue) - self._live
        if dead > _COMPACT_FLOOR and dead > len(self._queue) // 2:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries in place and restore the heap invariant.

        In-place (slice assignment) so the run loop's local alias to the
        queue list stays valid if a callback triggers compaction mid-run.
        """
        self._queue[:] = [e for e in self._queue if not e[3].cancelled]
        heapq.heapify(self._queue)

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------
    def run_until(self, end_us: TimeUs) -> None:
        """Run events with timestamps <= ``end_us``; afterwards ``now == end_us``."""
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        seq = self._seq
        try:
            while queue and queue[0][0] <= end_us:
                time_us, priority, _seq, handle, callback = pop(queue)
                if handle.cancelled:
                    continue
                handle._queued = False
                self._live -= 1
                self._now = time_us
                callback()
                period_us = handle.period_us
                if period_us and not handle.cancelled:
                    handle._queued = True
                    self._live += 1
                    push(
                        queue,
                        (time_us + period_us, priority, next(seq), handle, callback),
                    )
            if end_us < _FOREVER:
                self._now = max(self._now, end_us)
        finally:
            self._running = False

    def run(self) -> None:
        """Run until the event queue is exhausted.

        The same loop as :meth:`run_until` with no horizon, so ``now`` stays
        at the last fired event's time (0 if nothing fired).
        """
        if self._running:
            raise SimulationError("run called re-entrantly")
        self.run_until(_FOREVER)

    def pending_events(self) -> int:
        """Number of live (not cancelled) queued events."""
        return self._live
