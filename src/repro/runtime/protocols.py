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
  to time (control loops, snapshot sampling, detection buckets, client
  think time) depends on this.
* :class:`~repro.dbms.engine.ExecutionEngine` — the query-execution
  surface: submit, the one completion hook, active-cost accounting,
  snapshot sampling and the admission-gate hook.  It is a concrete base
  class, not a protocol: both engines subclass it and differ only in how
  an admitted statement runs.

An :class:`ExecutionBackend` bundles a clock, a timer service and an
engine plus run/close lifecycle.
Two implementations ship: :class:`~repro.runtime.sim_backend.SimulationBackend`
(the DES engine, bit-identical to the pre-seam behaviour under fixed
seeds) and :class:`~repro.runtime.realtime.RealTimeBackend` (wall-clock
time, thread agents, real SQL against in-process SQLite).

All protocols here are structural (:class:`typing.Protocol`): the
existing :class:`~repro.sim.engine.Simulator` satisfies them unchanged,
which is what makes the refactor behaviour-preserving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.dbms.query import Query

if TYPE_CHECKING:
    from repro.dbms.engine import ExecutionEngine

#: Default timer priority; ties at equal time break on scheduling order.
#: (Mirrors :data:`repro.sim.events.DEFAULT_PRIORITY` without importing the
#: sim layer — the runtime protocols must not depend on any one backend.)
DEFAULT_PRIORITY = 0


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


@runtime_checkable
class ExecutionBackend(Protocol):
    """One runnable execution substrate: clock + timers + engine.

    ``clock`` and ``timers`` may be the same object (the simulator is
    both); they are exposed separately so components can declare the
    narrowest dependency that suffices.
    """

    #: Short backend identifier (``"sim"``, ``"sqlite"``, ...).
    name: str

    @property
    def clock(self) -> Clock:
        """The backend's time source."""
        ...

    @property
    def timers(self) -> TimerService:
        """The backend's timer service."""
        ...

    @property
    def engine(self) -> ExecutionEngine:
        """The backend's execution engine."""
        ...

    def run_until(self, end_time: float) -> None:
        """Drive the backend until ``clock.now`` reaches ``end_time``.

        For the simulation backend this fires queued events and advances
        virtual time; for a real-time backend it blocks the calling thread
        while timers fire and queries execute, returning once the horizon
        has passed.
        """
        ...

    def close(self) -> None:
        """Release backend resources (threads, connections).  Idempotent."""
        ...
