"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock and the event heap.  It is a plain
callback-driven engine: components schedule zero-argument callables at future
times and the engine fires them in ``(time, priority, sequence)`` order.  The
engine is single-threaded and fully deterministic given deterministic
callbacks, which is what makes every experiment in this repository exactly
reproducible from a seed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import DEFAULT_PRIORITY, Event

#: Heap entries are ``(time, priority, seq, event)`` tuples so the heap
#: compares at C speed (seq is unique, so the event object never compares).
_HeapEntry = Tuple[float, int, int, Event]

#: Tombstone count past which (given tombstones outnumber live events)
#: the heap is compacted.  Keeps cancel O(1) amortised without letting a
#: cancel-heavy workload grow the heap without bound.
_COMPACT_MIN_TOMBSTONES = 256


class Simulator:
    """Heap-based discrete-event simulator."""

    #: Declared past-deadline contract (see
    #: :mod:`repro.runtime.conformance`): on a virtual clock "the past" is
    #: always a bug, so ``schedule_at`` before ``now`` raises.
    past_deadline_policy = "raise"

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._fired = 0
        self._tombstones = 0
        self._compactions = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still on the heap (including tombstones)."""
        return len(self._heap)

    @property
    def fired_events(self) -> int:
        """Number of events executed so far."""
        return self._fired

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still sitting in the heap as tombstones."""
        return self._tombstones

    @property
    def compactions(self) -> int:
        """Times the heap was rebuilt to purge cancel tombstones."""
        return self._compactions

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant with equal priority.

        Returns the :class:`Event` itself, which is its own cancellation
        handle (``.cancel()`` / ``.active``).
        """
        if delay < 0:
            raise SimulationError(
                "cannot schedule event {!r} with negative delay {}".format(label, delay)
            )
        time = self.now + delay
        event = Event(time, priority, self._seq, callback, label, self)
        heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` to fire at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule event {!r} at {} before now ({})".format(
                    label, time, self.now
                )
            )
        event = Event(time, priority, self._seq, callback, label, self)
        heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        return event

    def _note_cancelled(self) -> None:
        """An EventHandle cancelled a pending event (tombstone created)."""
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._heap)
        ):
            # Rebuild without tombstones.  Entries carry a unique seq, so
            # heapify restores exactly the pop order the live events had.
            self._heap = [
                entry for entry in self._heap if not entry[3].cancelled
            ]
            heapify(self._heap)
            self._tombstones = 0
            self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.

        Returns False when the heap is exhausted, True otherwise.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event.cancelled:
                if self._tombstones > 0:
                    self._tombstones -= 1
                continue
            self.now = event.time
            # Mark as consumed so that late cancel() calls become no-ops.
            event.cancelled = True
            self._fired += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed.  The clock is
        left at ``end_time`` even if the heap drains early, so periodic
        post-run measurements see a consistent horizon.
        """
        if end_time < self.now:
            raise SimulationError(
                "run_until({}) is in the past (now={})".format(end_time, self.now)
            )
        if self._running:
            raise SimulationError("run_until() called re-entrantly from a callback")
        self._running = True
        heap = self._heap
        try:
            while heap:
                time, _, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    if self._tombstones > 0:
                        self._tombstones -= 1
                    # A compaction in a callback may have replaced the list.
                    heap = self._heap
                    continue
                if time > end_time:
                    break
                heappop(heap)
                self.now = time
                # Mark as consumed so late cancel() calls become no-ops.
                event.cancelled = True
                self._fired += 1
                event.callback()
                heap = self._heap
            self.now = max(self.now, end_time)
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the heap drains (or ``max_events`` events fired).

        Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from a callback")
        self._running = True
        fired = 0
        try:
            while self.step():
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Simulator(now={:.6f}, pending={}, fired={})".format(
            self.now, len(self._heap), self._fired
        )
