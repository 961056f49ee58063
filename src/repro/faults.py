"""Fault injection for the control loop.

:class:`FaultInjector` perturbs a running :class:`SimulationBundle` in two
deliberately different ways:

* **Behavioral faults** are legitimate-but-hostile workload events driven
  through the public APIs — cancel storms, arrival bursts, release-latency
  jitter.  A correct controller must absorb these with its invariants
  intact; tests use them to show the accounting fixes hold under stress.
* **State corruptions** are white-box mutations of component internals —
  a leaked dispatcher slot, an undersumming plan, a completed query stuck
  among QP's open control-table rows.  Each models a specific historical
  bug class and exists to prove the matching invariant actually fires;
  reaching into private state is the point, not an accident.

Every injection is appended to :attr:`FaultInjector.injected` so tests can
correlate violations with their seeded faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.dbms.query import Query, QueryState
from repro.errors import PatrollerError, SchedulingError

#: Behavioral fault kinds a :class:`ScheduledFault` may name.  These drive
#: public APIs only, so a correct controller must absorb them with its
#: invariants intact; white-box corruptions are deliberately not
#: schedulable from data (they exist to *trip* invariants).
BEHAVIORAL_FAULTS = (
    "cancel_storm",
    "arrival_burst",
    "release_latency_jitter",
    "drop_completions",
)


@dataclass(frozen=True)
class ScheduledFault:
    """A picklable, data-driven description of one behavioral fault.

    ``kind`` names a behavioral :class:`FaultInjector` method (see
    :data:`BEHAVIORAL_FAULTS`); ``at`` is the injection time in seconds
    from the start of the run; ``params`` are the method's keyword
    arguments (``class_name``, ``count``, ...).  Scenario files compile
    their ``faults:`` section into these, and
    :meth:`FaultInjector.apply` turns one back into a live injection.
    """

    kind: str
    at: float = 0.0
    params: Mapping = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in BEHAVIORAL_FAULTS:
            raise SchedulingError(
                "unknown behavioral fault {!r}; expected one of {}".format(
                    self.kind, BEHAVIORAL_FAULTS
                )
            )
        if self.at < 0:
            raise SchedulingError(
                "fault {!r}: injection time must be >= 0, got {}".format(
                    self.kind, self.at
                )
            )


class FaultInjector:
    """Injects faults into an assembled experiment bundle.

    Behavioral faults accept a ``delay`` (seconds from now; 0 applies
    immediately), so storms and bursts can be planted before ``run()``.
    State corruptions always apply immediately — they model drift that has
    already happened.
    """

    def __init__(self, bundle: "SimulationBundle") -> None:  # noqa: F821
        self.bundle = bundle
        self.sim = bundle.sim
        self.patroller = bundle.patroller
        self.factory = bundle.factory
        controller = bundle.controller
        self.dispatcher = getattr(controller, "dispatcher", None)
        self.monitor = getattr(controller, "monitor", None)
        self.planner = getattr(controller, "planner", None)
        #: Log of every injection: {"fault": name, "time": when, **params}.
        self.injected: List[Dict] = []

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _log(self, fault: str, **params) -> None:
        entry = {"fault": fault, "time": self.sim.now}
        entry.update(params)
        self.injected.append(entry)

    def _at(self, delay: float, action: Callable[[], None], label: str) -> None:
        if delay <= 0:
            action()
        else:
            self.sim.schedule(delay, action, label="fault:{}".format(label))

    def _missing(self, fault: str, component: str) -> SchedulingError:
        controller = type(self.bundle.controller).__name__ \
            if self.bundle.controller is not None else "None"
        return SchedulingError(
            "fault {!r} needs a {} but the bundle's controller ({}) has "
            "none".format(fault, component, controller)
        )

    def _need_dispatcher(self, fault: str = "fault") -> "Dispatcher":  # noqa: F821
        if self.dispatcher is None:
            raise self._missing(fault, "dispatcher")
        return self.dispatcher

    def _need_monitor(self, fault: str = "fault") -> "Monitor":  # noqa: F821
        if self.monitor is None:
            raise self._missing(fault, "monitor")
        return self.monitor

    def apply(self, fault: ScheduledFault) -> None:
        """Inject one data-described behavioral fault.

        Validates the fault, checks *now* that the controller has every
        component the fault needs (a clear :class:`SchedulingError` beats
        a silent no-op at injection time), and schedules the injection at
        ``fault.at`` seconds (relative to the timer service's current
        time; past times apply immediately).
        """
        fault.validate()
        delay = max(0.0, fault.at - self.sim.now)
        method = getattr(self, fault.kind)
        method(delay=delay, **dict(fault.params))

    # ------------------------------------------------------------------
    # Behavioral faults (public-API driven)
    # ------------------------------------------------------------------
    def cancel_storm(
        self,
        class_name: Optional[str] = None,
        fraction: float = 1.0,
        delay: float = 0.0,
    ) -> None:
        """Cancel a fraction of every (or one) class queue through QP.

        Models a user or admin abandoning a pile of waiting statements at
        once — the event that historically exposed queue-accounting leaks.

        A ``class_name`` the dispatcher does not queue (unknown, or an
        indirectly-controlled OLTP class) is not an accounting event at
        all, so it is recorded as a skip in :attr:`injected` instead of
        silently cancelling nothing.
        """
        if not 0.0 < fraction <= 1.0:
            raise SchedulingError(
                "cancel_storm fraction must be in (0, 1], got {}".format(fraction)
            )
        dispatcher = self._need_dispatcher("cancel_storm")

        def storm() -> None:
            if class_name is not None:
                if class_name not in dispatcher._controlled:
                    self._log(
                        "cancel_storm",
                        class_name=class_name,
                        cancelled=0,
                        skipped="class {!r} is not queued by the dispatcher".format(
                            class_name
                        ),
                    )
                    return
            cancelled = 0
            for name, state in dispatcher._controlled.items():
                if class_name is not None and name != class_name:
                    continue
                victims = list(state.queue)
                victims = victims[: max(1, int(len(victims) * fraction))] if victims else []
                for query in victims:
                    if self.patroller.cancel(query):
                        cancelled += 1
            self._log("cancel_storm", class_name=class_name, cancelled=cancelled)

        self._at(delay, storm, "cancel_storm")

    def arrival_burst(
        self,
        class_name: str,
        count: int,
        delay: float = 0.0,
    ) -> None:
        """Submit ``count`` extra queries of a class in the same instant.

        Stresses the release loop and conservation accounting with a
        thundering herd the schedule never planned for.
        """
        mix = self.bundle.mixes.get(class_name)
        if mix is None:
            raise SchedulingError("no workload mix for class {!r}".format(class_name))

        def burst() -> None:
            for index in range(count):
                query = self.factory.create(
                    mix, class_name, client_id="fault:burst:{}".format(index)
                )
                self.patroller.submit(query)
            self._log("arrival_burst", class_name=class_name, count=count)

        self._at(delay, burst, "arrival_burst")

    def release_latency_jitter(
        self,
        release_latency: float,
        delay: float = 0.0,
    ) -> None:
        """Change QP's release latency mid-run.

        Widens (or collapses) the window in which released queries are
        neither queued nor executing — the window cancel-after-release
        bugs live in.
        """

        def jitter() -> None:
            self.patroller.release_latency = release_latency
            self._log("release_latency_jitter", release_latency=release_latency)

        self._at(delay, jitter, "release_latency_jitter")

    def drop_completions(
        self,
        count: int = 1,
        class_name: Optional[str] = None,
        delay: float = 0.0,
    ) -> None:
        """Silently swallow the dispatcher's next ``count`` completion callbacks.

        Models a lost engine notification: the dispatcher keeps carrying a
        statement that already finished.  ``class_name`` restricts the
        drops to one class's completions (by default any completion counts,
        including bypassing OLTP traffic the dispatcher may not even
        track).  Drops stack: each wraps what the previous one left in
        place, through :meth:`QueryPatroller.wrap_subscriber
        <repro.patroller.patroller.QueryPatroller.wrap_subscriber>`, which
        hands the wrapper every completion although the dispatcher itself
        hears only its gated classes'.
        """
        target = self._need_dispatcher("drop_completions").on_completion

        def install() -> None:
            remaining = count

            def wrap(inner: Callable[[Query], None]) -> Callable[[Query], None]:
                def dropping(query: Query) -> None:
                    nonlocal remaining
                    if remaining > 0 and (
                        class_name is None or query.class_name == class_name
                    ):
                        remaining -= 1
                        return
                    inner(query)

                return dropping

            try:
                self.patroller.wrap_subscriber("completed", target, wrap)
            except PatrollerError:
                raise SchedulingError(
                    "the dispatcher is not subscribed to the patroller's "
                    "completed event"
                )
            self._log("drop_completions", count=count, class_name=class_name)

        self._at(delay, install, "drop_completions")

    # ------------------------------------------------------------------
    # State corruptions (white-box, immediate)
    # ------------------------------------------------------------------
    def leak_dispatcher_slot(self, class_name: str, cost: float = 500.0) -> None:
        """Inflate a class's in-flight cost with no query behind it.

        The exact signature of the historical accounting leak: budget
        consumed forever, releases throttled, nothing to retire.  Trips
        ``dispatcher_in_flight_consistent``.
        """
        state = self._need_dispatcher("leak_dispatcher_slot")._state(class_name)
        state.in_flight_cost += cost
        state.in_flight_count += 1
        self._log("leak_dispatcher_slot", class_name=class_name, cost=cost)

    def corrupt_plan(self, mode: str = "undersum", amount: float = 5_000.0) -> None:
        """Damage the active plan in place, bypassing plan validation.

        ``"undersum"`` strands ``amount`` timerons below the system limit
        (trips ``plan_spends_system_limit``); ``"negative"`` drives one
        class limit below zero (trips ``plan_limits_nonnegative``).
        """
        plan = self._need_dispatcher("corrupt_plan").plan
        name = next(iter(plan))
        if mode == "undersum":
            plan._limits[name] = max(0.0, plan._limits[name] - amount)
        elif mode == "negative":
            plan._limits[name] = -abs(amount)
        else:
            raise SchedulingError(
                "unknown plan corruption {!r}; expected 'undersum' or 'negative'".format(
                    mode
                )
            )
        self._log("corrupt_plan", mode=mode, class_name=name, amount=amount)

    def corrupt_control_tables(self, class_name: str) -> None:
        """Plant an already-completed query among QP's open control-table rows.

        Models the stale-row leak of an unwired cancellation/completion
        path.  Trips ``control_tables_are_live``.
        """
        mix = self.bundle.mixes.get(class_name)
        if mix is None:
            raise SchedulingError("no workload mix for class {!r}".format(class_name))
        query = self.factory.create(mix, class_name, client_id="fault:stale")
        query.submit_time = self.sim.now
        query.state = QueryState.COMPLETED
        self.patroller.tables.record(query)
        self._log("corrupt_control_tables", class_name=class_name, query_id=query.query_id)

    def corrupt_velocity_sample(self, class_name: str, value: float = 1.5) -> None:
        """Retain an out-of-range velocity measurement for a class.

        Trips ``velocity_in_unit_interval``.
        """
        from repro.core.monitor import ClassMeasurement

        monitor = self._need_monitor("corrupt_velocity_sample")
        monitor._last_measurement[class_name] = ClassMeasurement(
            class_name=class_name,
            metric="velocity",
            value=value,
            sample_count=1,
            measured_at=self.sim.now,
        )
        self._log("corrupt_velocity_sample", class_name=class_name, value=value)

    def corrupt_oltp_regression(self) -> None:
        """Corrupt the performance model's online regression state.

        Goes through the model's public ``corrupt()`` seam (no reaching
        into private weights).  A ``learned`` model then predicts NaN for
        every class until :meth:`reset`; the paper model holds no online
        state and refuses with a ``ConfigurationError``.
        """
        model = getattr(self.planner, "model", None) if self.planner else None
        if model is None:
            raise self._missing("corrupt_oltp_regression", "planner with a model")
        model.corrupt("regression")
        self._log("corrupt_oltp_regression")
