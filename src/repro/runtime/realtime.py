"""The real-time execution backend.

Where :class:`~repro.runtime.sim_backend.SimulationBackend` advances a
virtual clock over an event heap, this backend runs against *wall-clock*
time: timers fire when the monotonic clock actually reaches their due
time, and queries execute real SQL on worker threads (see
:mod:`repro.runtime.sqlite_engine`).

Concurrency model — deliberately the same shape as the simulator:

* The **control plane is single-threaded.**  The thread that calls
  :meth:`RealTimeBackend.run_until` becomes the timer loop; every
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
from typing import Any, Callable, List, Optional, Union

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.runtime.clock import WallClock, as_clock
from repro.runtime.protocols import DEFAULT_PRIORITY, Clock

#: Longest uninterruptible sleep of the timer loop.  Bounds how stale the
#: loop's view of "now" can get if a notify is ever missed; small enough
#: that horizon overshoot stays well under human-visible latency.
_MAX_WAIT = 0.05


class _Timer:
    """One pending real-time timer (heap entry, tombstone-cancellable)."""

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        label: str,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "_Timer") -> bool:
        return self.sort_key() < other.sort_key()


class RealTimeTimerHandle:
    """Cancellable reference to a scheduled real-time timer."""

    __slots__ = ("_timer",)

    def __init__(self, timer: _Timer) -> None:
        self._timer = timer

    @property
    def time(self) -> float:
        """The wall time at which the timer is due."""
        return self._timer.time

    @property
    def label(self) -> str:
        """The diagnostic label attached at scheduling time."""
        return self._timer.label

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not self._timer.cancelled

    def cancel(self) -> bool:
        """Cancel if still pending; True iff this call cancelled it."""
        if self._timer.cancelled:
            return False
        self._timer.cancelled = True
        return True


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
        self._heap: List[_Timer] = []
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
    ) -> RealTimeTimerHandle:
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
            timer = self._push(self.clock.now + delay, callback, label, priority)
        return RealTimeTimerHandle(timer)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> RealTimeTimerHandle:
        """Fire ``callback`` once the wall clock reaches ``time``.

        A time already past fires at once (``past_deadline_policy``); NaN
        is never reached and raises.
        """
        if time != time:
            raise SimulationError("cannot schedule timer {!r} at NaN".format(label))
        with self._cond:
            timer = self._push(time, callback, label, priority)
        return RealTimeTimerHandle(timer)

    def _push(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str,
        priority: int,
    ) -> _Timer:
        """Enqueue one timer and wake the loop (caller holds the lock)."""
        timer = _Timer(time, priority, self._seq, callback, label)
        self._seq += 1
        heapq.heappush(self._heap, timer)
        self._cond.notify_all()
        return timer

    # ------------------------------------------------------------------
    # The loop (caller thread only)
    # ------------------------------------------------------------------
    def _next_due(self, end_time: float) -> Optional[_Timer]:
        """Pop the next timer due within the horizon, or None.

        Caller must hold the lock.  A timer is due only when the clock has
        reached it AND it falls inside the ``run_until`` horizon: if the
        loop thread wakes late (long callback, scheduler stall) the wall
        clock may already be past ``end_time``, and timers scheduled
        beyond the horizon must stay pending for the next ``run_until``
        call rather than firing early.
        """
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.time <= self.clock.now and head.time <= end_time:
                heapq.heappop(self._heap)
                # Mark consumed so late cancel() calls become no-ops.
                head.cancelled = True
                return head
            return None
        return None

    def run_until(self, end_time: float) -> None:
        """Fire timers as they come due until the clock passes ``end_time``.

        The calling thread becomes the timer loop.  Timers due at or
        before ``end_time`` are executed; later ones stay pending.
        Returns once ``now >= end_time`` with nothing due.
        """
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
                            horizon = min(horizon, self._heap[0].time - now)
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


class RealTimeBackend:
    """Wall-clock backend: real timers, real SQL, thread-based agents."""

    name = "sqlite"

    def __init__(
        self,
        config: SimulationConfig,
        rng: "RandomStreams",  # noqa: F821 - annotation only
        clock: Optional[Union[Clock, Callable[[], float]]] = None,
        engine: Optional[object] = None,
        **engine_options: Any,
    ) -> None:
        self._clock = as_clock(clock)
        self._timers = RealTimeTimerService(self._clock)
        if engine is None:
            # Imported here so the protocols/clock layer stays importable
            # without the sqlite engine (and vice versa).
            from repro.runtime.sqlite_engine import SQLiteEngine

            engine = SQLiteEngine(self._timers, config, rng, **engine_options)
        self._engine = engine
        self._closed = False

    # ------------------------------------------------------------------
    # ExecutionBackend protocol
    # ------------------------------------------------------------------
    @property
    def clock(self) -> Clock:
        """Wall-clock seconds since backend construction."""
        return self._clock

    @property
    def timers(self) -> RealTimeTimerService:
        """The wall-clock timer service (the control-plane loop)."""
        return self._timers

    @property
    def engine(self):
        """The SQLite execution engine."""
        return self._engine

    def run_until(self, end_time: float) -> None:
        """Block the calling thread driving the loop until ``end_time``."""
        self._timers.run_until(end_time)

    def close(self) -> None:
        """Stop worker threads and release database resources."""
        if self._closed:
            return
        self._closed = True
        close = getattr(self._engine, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RealTimeBackend(now={:.3f}, closed={})".format(
            self._clock.now, self._closed
        )
