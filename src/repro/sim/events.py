"""Event and timer records for the discrete-event simulator.

An :class:`Event` couples a firing time with a zero-argument callback.  Events
are totally ordered by ``(time, priority, sequence)`` so that simultaneous
events fire in a deterministic order: first by explicit priority (lower fires
first), then by scheduling order.

Cancelling an event uses the standard "tombstone" idiom: it marks the event
dead and the engine skips dead events when it pops them, which keeps
cancellation O(1).  A :class:`Timer` is the re-armable alternative for a
component that moves one deadline over and over: its pending fire time
lives in the object instead of in a heap entry, so re-arming pushes
nothing and leaves no tombstone behind.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Tuple

from repro.errors import SimulationError

#: Default event priority.  Most events use this; ties break on sequence.
DEFAULT_PRIORITY = 0

#: Key of a timer that is not armed: after every finite heap head and never
#: less than itself, so the engine's earliest-timer scan skips it.
_IDLE: Tuple[float, float, float] = (inf, inf, inf)


class Event:
    """A scheduled callback inside the simulation.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule` and
    returned to the caller directly: an event is its own cancellation
    handle (it satisfies the ``TimerHandle`` protocol), so scheduling costs
    a single allocation.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    @property
    def active(self) -> bool:
        """True while the event is still pending (not fired, not cancelled)."""
        return not self.cancelled

    def cancel(self) -> bool:
        """Cancel the event if still pending.

        Returns True if this call cancelled the event, False if it was
        already cancelled or has already fired (fired events are marked
        cancelled by the engine as they execute).
        """
        if self.cancelled:
            return False
        self.cancelled = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        label = self.label or self.callback
        return "Event(t={:.6f}, prio={}, seq={}, {}, {})".format(
            self.time, self.priority, self.seq, label, state
        )


class Timer:
    """A long-lived, re-armable timer kept beside the event heap.

    Created by :meth:`repro.sim.engine.Simulator.timer`.  :meth:`arm` sets
    (or moves) the one pending fire time; it takes the sequence number a
    ``schedule`` call at that point would have taken and the default
    priority, and the engine merges armed timers with the heap by the same
    ``(time, priority, seq)`` order — so a timer fires exactly where a
    cancel-and-reschedule pair would have put a heap event.
    """

    __slots__ = ("callback", "label", "_sim", "_key")

    def __init__(self, sim: Any, callback: Callable[[], Any], label: str = "") -> None:
        self.callback = callback
        self.label = label
        self._sim = sim
        self._key = _IDLE

    @property
    def active(self) -> bool:
        """True while armed (not yet fired, not cancelled)."""
        return self._key is not _IDLE

    def arm(self, delay: float) -> None:
        """Fire ``delay`` seconds from now, replacing any pending fire time."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                "cannot arm timer {!r}: negative delay or NaN ({})".format(self.label, delay)
            )
        sim = self._sim
        self._key = (sim.now + delay, DEFAULT_PRIORITY, sim._seq)
        sim._seq += 1

    def cancel(self) -> bool:
        """Disarm; True iff the timer was armed."""
        if self._key is _IDLE:
            return False
        self._key = _IDLE
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "t={:.6f}".format(self._key[0]) if self.active else "idle"
        return "Timer({}, {})".format(self.label or self.callback, state)
