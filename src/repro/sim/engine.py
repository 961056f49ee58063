"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock, the event heap and the re-armable
timers beside it.  It is a plain callback-driven engine: components schedule
zero-argument callables at future times — one-shot events on the heap, or a
long-lived :class:`Timer` whose single deadline keeps moving — and the
engine fires them all in one ``(time, priority, sequence)`` order.
The engine is single-threaded and fully deterministic given deterministic
callbacks, which is what makes every experiment in this repository exactly
reproducible from a seed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import _IDLE, DEFAULT_PRIORITY, Event, Timer

#: Heap entries are ``(time, priority, seq, event)`` tuples so the heap
#: compares at C speed (seq is unique, so the event object never compares).
_HeapEntry = Tuple[float, int, int, Event]


class Simulator:
    """Discrete-event simulator: an event heap plus re-armable timers."""

    #: Declared past-deadline contract (see
    #: ``tests/runtime/conformance.py``): on a virtual clock "the past" is
    #: always a bug, so ``schedule_at`` before ``now`` raises.
    past_deadline_policy = "raise"

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[_HeapEntry] = []
        self._timers: List[Timer] = []
        self._seq = 0
        self._fired = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Events still on the heap (including tombstones) plus armed timers."""
        return len(self._heap) + sum(1 for timer in self._timers if timer.active)

    @property
    def fired_events(self) -> int:
        """Number of events and timers executed so far."""
        return self._fired

    @property
    def compactions(self) -> int:
        """Always 0: kept only because ``perf/measure.py`` reads it."""
        return 0

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
        if not delay >= 0:  # also rejects NaN, which would stop run() early
            raise SimulationError(
                "cannot schedule event {!r}: negative delay or NaN ({})".format(label, delay)
            )
        time = self.now + delay
        event = Event(time, priority, self._seq, callback, label)
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
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                "cannot schedule event {!r} at {}: before now ({}) or NaN".format(
                    label, time, self.now
                )
            )
        event = Event(time, priority, self._seq, callback, label)
        heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        return event

    def timer(self, callback: Callable[[], Any], label: str = "") -> Timer:
        """Create a re-armable :class:`Timer` that fires ``callback``.

        Meant for the few components that move one deadline over and over
        (the PS pools: two timers per engine, one simulator per shard).
        Every event fired scans all of a simulator's timers for the
        earliest armed one and timers are never unregistered, so one-shot
        or numerous deadlines belong on the heap (:meth:`schedule`).
        """
        timer = Timer(self, callback, label)
        self._timers.append(timer)
        return timer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _fire(self, end_time: float, limit: int) -> int:
        """Fire what is due by ``end_time`` in ``(time, priority, seq)`` order.

        Stops after ``limit`` firings (never, when negative); returns how
        many events and timers fired.
        """
        heap = self._heap
        timers = self._timers
        idle = _IDLE
        fired = 0
        while fired != limit:
            key = idle
            for candidate in timers:
                if candidate._key < key:
                    timer = candidate
                    key = candidate._key
            # A heap entry and a timer key never compare equal (seq is
            # unique), so the event object itself never compares.
            if heap and heap[0] < key:
                time, _, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > end_time:
                    break
                heappop(heap)
                # Mark as consumed so late cancel() calls become no-ops.
                event.cancelled = True
                callback = event.callback
            elif key is idle or key[0] > end_time:
                break
            else:
                time = key[0]
                # Disarm first: the callback usually re-arms.
                timer._key = idle
                callback = timer.callback
            self.now = time
            self._fired += 1
            fired += 1
            callback()
        return fired

    def step(self) -> bool:
        """Fire the next pending event or armed timer.

        Returns False when nothing is pending, True otherwise.
        """
        return self._fire(inf, 1) == 1

    def run_until(self, end_time: float) -> None:
        """Run events until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed; a timer due
        later stays armed.  The clock is left at ``end_time`` even if
        everything drains early, so periodic post-run measurements see a
        consistent horizon.
        """
        if not end_time >= self.now:  # NaN too
            raise SimulationError(
                "run_until({}) is in the past or not a time (now={})".format(
                    end_time, self.now
                )
            )
        if self._running:
            raise SimulationError("run_until() called re-entrantly from a callback")
        self._running = True
        try:
            self._fire(end_time, -1)
            self.now = max(self.now, end_time)
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until nothing is pending (or ``max_events`` events fired).

        Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from a callback")
        self._running = True
        try:
            return self._fire(inf, -1 if max_events is None else max_events)
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Simulator(now={:.6f}, pending={}, fired={})".format(
            self.now, self.pending_events, self._fired
        )
