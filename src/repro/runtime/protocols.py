"""The execution-backend protocols.

The paper's Query Scheduler ran against a real DBMS (DB2 + Query
Patroller); our controller stack originally ran only against the
discrete-event simulator.  This module defines the *seam* between the two:
the complete surface the control stack (Monitor, Planner, Scheduler,
Dispatcher, WorkloadDetector, DirectScheduler, MPLController,
QueryPatroller, tracer, profiler, validation harness) is allowed to touch.

Three layers, narrow to wide:

* :class:`Clock` — ``now`` only.  Anything that merely *reads* time (the
  tracer, staleness bounds, measurement windows) depends on this.
* :class:`TimerService` — a clock plus ``schedule``/``schedule_at``
  returning cancellable :class:`TimerHandle`\\ s.  Anything that *reacts*
  to time (control loops, snapshot sampling, detection buckets, the
  period schedule) depends on this.
* :class:`~repro.dbms.engine.ExecutionEngine` — the query-execution
  surface: submit, the one completion hook, active-cost accounting,
  snapshot sampling and the admission-gate hook.  It is a concrete base
  class, not a protocol: both engines subclass it and differ only in how
  an admitted statement runs.

A backend is one timer service and one engine, built as a pair by
:func:`~repro.runtime.factory.make_backend`: the discrete-event
:class:`~repro.sim.engine.Simulator` with
:class:`~repro.dbms.engine.DatabaseEngine` (``sim``), or the wall-clock
:class:`~repro.runtime.realtime.RealTimeTimerService` with
:class:`~repro.runtime.sqlite_engine.SQLiteEngine` (``sqlite``).

All protocols here are structural (:class:`typing.Protocol`): both timer
services satisfy them without subclassing anything.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.dbms.query import Query
from repro.sim.events import DEFAULT_PRIORITY


@runtime_checkable
class Clock(Protocol):
    """A monotonic time source in seconds.

    For the simulation backend this is virtual time starting at 0; for a
    real-time backend it is wall-clock seconds since the backend started.
    Components that only *read* time must depend on this, never on a
    concrete simulator.
    """

    @property
    def now(self) -> float:
        """Current time in seconds (monotonically non-decreasing)."""
        ...


@runtime_checkable
class TimerHandle(Protocol):
    """Cancellable reference to a scheduled timer."""

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        ...

    def cancel(self) -> bool:
        """Cancel if still pending; True iff this call cancelled it."""
        ...


@runtime_checkable
class TimerService(Protocol):
    """A clock that can also fire callbacks at future times.

    Timers with equal due time fire in ``(priority, scheduling order)``
    order — lower priority first — on every backend, so controller logic
    that relies on same-instant ordering is backend-portable.
    """

    @property
    def now(self) -> float:
        """Current time in seconds."""
        ...

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> TimerHandle:
        """Fire ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        ...

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> TimerHandle:
        """Fire ``callback`` at absolute time ``time``."""
        ...


@runtime_checkable
class AdmissionGate(Protocol):
    """In-engine admission control hook (see :mod:`repro.core.direct`)."""

    def admit(self, query: Query) -> bool:
        """True to admit now; False to take ownership and admit later."""
        ...
