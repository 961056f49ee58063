"""The real-time timer service.

Where :class:`~repro.sim.engine.Simulator` advances a virtual clock over
an event heap, this service runs against *wall-clock* time: timers fire
when the monotonic clock actually reaches their due time.  Paired with
:class:`~repro.runtime.sqlite_engine.SQLiteEngine`, whose worker threads
execute real SQL, it is the ``sqlite`` backend.

Concurrency model — deliberately the same shape as the simulator:

* The **control plane is single-threaded.**  The thread that calls
  :meth:`RealTimeTimerService.run_until` becomes the timer loop; every
  controller callback (planner ticks, monitor snapshots, client
  submissions, completion listeners) fires on that thread, in
  ``(time, priority, sequence)`` order, exactly like simulator events.
  No controller component needs locks.
* **Only SQL leaves that thread.**  Worker threads execute statements and
  then post a zero-delay completion timer back into the loop, the same
  way an async DBMS driver posts completions onto an event loop.

:meth:`RealTimeTimerService.schedule` is thread-safe (workers post
completions with it); everything else is loop-thread-only.
"""

from __future__ import annotations

import heapq
import threading
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.runtime.clock import WallClock
from repro.runtime.protocols import Clock
from repro.sim.events import DEFAULT_PRIORITY, Event

#: Longest uninterruptible sleep of the timer loop.  Bounds how stale the
#: loop's view of "now" can get if a notify is ever missed; small enough
#: that horizon overshoot stays well under human-visible latency.
_MAX_WAIT = 0.05


class RealTimeTimerService:
    """Wall-clock timer service with simulator-compatible semantics.

    Same-instant ordering matches the simulator exactly — ``(time,
    priority, sequence)`` — so controller logic that relies on event
    ordering behaves identically on both backends.  Unlike the simulator,
    ``schedule_at`` with a time already in the past is *clamped* to fire
    immediately rather than raising: on a moving wall clock "now" has
    always advanced by the time the caller's arithmetic lands.
    """

    #: Declared past-deadline contract (see
    #: ``tests/runtime/conformance.py``): ``schedule_at`` with a time in
    #: the past clamps to "fire immediately" instead of raising.
    past_deadline_policy = "clamp"

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else WallClock()
        # ``(time, priority, seq, event)`` entries, as on the simulator's heap.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._fired = 0
        self._running = False
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current wall-clock seconds since the backend started."""
        return self.clock.now

    @property
    def pending_events(self) -> int:
        """Timers still on the heap (including tombstones)."""
        return len(self._heap)

    @property
    def fired_events(self) -> int:
        """Timers executed so far."""
        return self._fired

    # ------------------------------------------------------------------
    # Scheduling (thread-safe)
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Fire ``callback`` ``delay`` seconds from now.

        "Now" is read under the service lock, in the same critical section
        that enqueues the timer: concurrent shard workers posting
        completions must never compute a due time from a stale clock read
        taken before another scheduler advanced past it.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                "cannot schedule timer {!r}: negative delay or NaN ({})".format(label, delay)
            )
        with self._cond:
            return self._push(self.clock.now + delay, callback, label, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Fire ``callback`` once the wall clock reaches ``time``.

        A time already past fires at once (``past_deadline_policy``); NaN
        is never reached and raises.
        """
        if time != time:
            raise SimulationError("cannot schedule timer {!r} at NaN".format(label))
        with self._cond:
            return self._push(time, callback, label, priority)

    def _push(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str,
        priority: int,
    ) -> Event:
        """Enqueue one timer and wake the loop (caller holds the lock)."""
        event = Event(time, priority, self._seq, callback, label)
        heapq.heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        self._cond.notify_all()
        return event

    # ------------------------------------------------------------------
    # The loop (caller thread only)
    # ------------------------------------------------------------------
    def _next_due(self, end_time: float) -> Optional[Event]:
        """Pop the next timer due within the horizon, or None.

        Caller must hold the lock.  A timer is due only when the clock has
        reached it AND it falls inside the ``run_until`` horizon: if the
        loop thread wakes late (long callback, scheduler stall) the wall
        clock may already be past ``end_time``, and timers scheduled
        beyond the horizon must stay pending for the next ``run_until``
        call rather than firing early.
        """
        heap = self._heap
        while heap:
            time, _, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if time <= self.clock.now and time <= end_time:
                heapq.heappop(heap)
                # Mark consumed so late cancel() calls become no-ops.
                event.cancelled = True
                return event
            return None
        return None

    def run_until(self, end_time: float) -> None:
        """Fire timers as they come due until the clock passes ``end_time``.

        The calling thread becomes the timer loop.  Timers due at or
        before ``end_time`` are executed; later ones stay pending.
        Returns once ``now >= end_time`` with nothing due.  A horizon in
        the past fires what is already due and returns; a NaN horizon is
        never reached and raises.
        """
        if end_time != end_time:
            raise SimulationError("run_until({}) is not a time".format(end_time))
        if self._running:
            raise SimulationError("run_until() called re-entrantly from a callback")
        self._running = True
        try:
            while True:
                with self._cond:
                    due = self._next_due(end_time)
                    if due is None:
                        now = self.clock.now
                        if now >= end_time:
                            return
                        horizon = end_time - now
                        if self._heap:
                            horizon = min(horizon, self._heap[0][0] - now)
                        self._cond.wait(timeout=max(0.0, min(horizon, _MAX_WAIT)))
                        continue
                # Fire outside the lock: callbacks schedule new timers.
                self._fired += 1
                due.callback()
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RealTimeTimerService(now={:.3f}, pending={}, fired={})".format(
            self.now, len(self._heap), self._fired
        )
