"""The runtime validation harness.

A closed control loop is very good at *hiding* its own bugs: when the
dispatcher leaks an in-flight slot or the monitor feeds the solver a stale
measurement, the loop quietly re-plans around the corrupted state and the
headline metrics only drift.  The harness makes that class of bug loud by
re-deriving the controller's accounting from ground truth at every control
interval and comparing.

Three pieces:

* :class:`ControlLoopWorld` — a read-only view over the live components
  (sim, engine, patroller, dispatcher, monitor, planner, solver) that
  invariant checks receive;
* :func:`core_invariants` — the built-in suite covering dispatcher
  accounting, dispatcher/engine agreement, plan shape, control-table
  liveness, per-class conservation and velocity range;
* :class:`ValidationHarness` — evaluates a registry against the world at
  every plan decision (and on demand), records violations into the
  interval's telemetry record, and in strict mode raises
  :class:`~repro.errors.InvariantViolation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import SimulationConfig
from repro.core.dispatcher import Dispatcher
from repro.core.monitor import Monitor
from repro.core.planner import SchedulingPlanner
from repro.core.service_class import ServiceClass
from repro.dbms.query import QueryState
from repro.errors import InvariantViolation, SchedulingError
from repro.metrics.telemetry import ControlIntervalRecord
from repro.patroller.patroller import QueryPatroller
from repro.runtime import ExecutionEngine, TimerService
from repro.validation.invariants import (
    Invariant,
    InvariantRegistry,
    Severity,
    Violation,
)

#: Harness modes: ``"off"`` (never attached), ``"warn"`` (record violations
#: into telemetry only) and ``"strict"`` (additionally raise
#: :class:`InvariantViolation` for severity ERROR and above).
MODES = ("off", "warn", "strict")

#: Absolute slack tolerated when comparing incrementally maintained costs
#: against a ground-truth re-sum (float accumulation drift).
_COST_TOLERANCE = 1e-6


@dataclass
class ControlLoopWorld:
    """Read-only view of the live control loop handed to invariant checks.

    Components a deployment does not have (e.g. no planner under the
    baseline controllers) are ``None``; :func:`core_invariants` only
    registers the checks whose subjects are present.
    """

    sim: TimerService
    engine: ExecutionEngine
    classes: Sequence[ServiceClass]
    config: Optional[SimulationConfig] = None
    patroller: Optional[QueryPatroller] = None
    dispatcher: Optional[Dispatcher] = None
    monitor: Optional[Monitor] = None
    planner: Optional[SchedulingPlanner] = None

    @property
    def now(self) -> float:
        """Current backend time (virtual or wall-clock)."""
        return self.sim.now

    def controlled_classes(self) -> List[ServiceClass]:
        """The classes the dispatcher queues and releases for — its own
        answer, not a guess from class kind (in-engine control gates the
        OLTP classes too)."""
        return self.dispatcher.gated_classes

    @staticmethod
    def from_scheduler(scheduler: "QueryScheduler") -> "ControlLoopWorld":  # noqa: F821
        """Build a world from a wired :class:`QueryScheduler`."""
        return ControlLoopWorld(
            sim=scheduler.sim,
            engine=scheduler.engine,
            classes=scheduler.classes,
            config=scheduler.config,
            patroller=scheduler.patroller,
            dispatcher=scheduler.dispatcher,
            monitor=scheduler.monitor,
            planner=scheduler.planner,
        )

    @staticmethod
    def from_bundle(bundle: "SimulationBundle") -> "ControlLoopWorld":  # noqa: F821
        """Build a world from an assembled experiment bundle.

        Reaches into the attached controller for the dispatcher, monitor
        and planner when it has them (the Query Scheduler has all three,
        in-engine control the dispatcher and planner); the other
        controllers yield a world with only the engine-level components.
        """
        controller = bundle.controller
        return ControlLoopWorld(
            sim=bundle.sim,
            engine=bundle.engine,
            classes=bundle.classes,
            config=bundle.config,
            patroller=bundle.patroller,
            dispatcher=getattr(controller, "dispatcher", None),
            monitor=getattr(controller, "monitor", None),
            planner=getattr(controller, "planner", None),
        )


# ----------------------------------------------------------------------
# The core suite
# ----------------------------------------------------------------------
def _check_dispatcher_accounting(world: ControlLoopWorld):
    dispatcher = world.dispatcher
    for service_class in world.controlled_classes():
        name = service_class.name
        now = dispatcher.class_accounting(name)
        true_cost = sum(q.estimated_cost for q in now.in_flight.values())
        if now.in_flight_count != len(now.in_flight):
            return "class {!r}: count {} but {} in-flight queries".format(
                name, now.in_flight_count, len(now.in_flight)
            )
        if abs(now.in_flight_cost - true_cost) > _COST_TOLERANCE * max(1.0, true_cost):
            return "class {!r}: cost {:.6f} but in-flight queries sum to {:.6f}".format(
                name, now.in_flight_cost, true_cost
            )
    return True


def _check_engine_agreement(world: ControlLoopWorld):
    dispatcher = world.dispatcher
    in_flight = {  # class name -> its released, unretired queries by id
        c.name: dispatcher.class_accounting(c.name).in_flight
        for c in world.controlled_classes()
    }
    # Every dispatcher-routed statement the engine is executing must still
    # be on the dispatcher's books (queue_time distinguishes routed queries
    # from bypassing clients sharing the engine).
    for query in world.engine.executing_snapshot():
        if query.class_name not in in_flight or query.queue_time is None:
            continue
        if query.query_id not in in_flight[query.class_name]:
            return "engine executes query {} of class {!r} unknown to dispatcher".format(
                query.query_id, query.class_name
            )
    # And every in-flight query the dispatcher believes is executing must
    # actually be executing in the engine — and a finished statement must
    # not linger on the dispatcher's books (dropped completion callback).
    executing = {q.query_id for q in world.engine.executing_snapshot()}
    for name, queries in in_flight.items():
        for query in queries.values():
            if query.state == QueryState.EXECUTING and query.query_id not in executing:
                return "dispatcher holds query {} of class {!r} as executing; engine disagrees".format(
                    query.query_id, name
                )
            if query.state in (QueryState.COMPLETED, QueryState.CANCELLED):
                return "dispatcher still holds {} query {} of class {!r} in flight".format(
                    query.state.name.lower(), query.query_id, name
                )
    return True


def _check_plan_limits_nonnegative(world: ControlLoopWorld):
    for name, limit in world.dispatcher.plan.items():
        if limit < 0 or math.isnan(limit):
            return "class {!r} has cost limit {}".format(name, limit)
    return True


def _check_plan_spends_system_limit(world: ControlLoopWorld):
    plan = world.dispatcher.plan
    total = plan.total_allocated
    system = plan.system_cost_limit
    # Grid quantisation may legitimately leave up to one grid step per
    # class unallocated; anything beyond that is a solver/plan bug.
    grid = (
        world.config.planner.grid_timerons if world.config is not None else 1_000.0
    )
    tolerance = max(grid * max(1, len(world.classes)), _COST_TOLERANCE)
    if total > system * (1 + _COST_TOLERANCE):
        return "limits sum to {:.1f} > system cost limit {:.1f}".format(total, system)
    if total < system - tolerance:
        return "limits sum to {:.1f}, stranding {:.1f} of the {:.1f} system limit".format(
            total, system - total, system
        )
    return True


def _check_control_tables_are_live(world: ControlLoopWorld):
    for query in world.patroller.tables.open():
        if query.state in (QueryState.COMPLETED, QueryState.CANCELLED, QueryState.REJECTED):
            return "query {} of class {!r} is {} but still an open row".format(
                query.query_id, query.class_name, query.state.name
            )
        if query.submit_time is None:
            return "query {} of class {!r} is an open row but never submitted".format(
                query.query_id, query.class_name
            )
    return True


def _check_class_conservation(world: ControlLoopWorld):
    dispatcher = world.dispatcher
    for service_class in world.controlled_classes():
        name = service_class.name
        now = dispatcher.class_accounting(name)
        accounted = now.queue_length + now.queue_cancelled + now.released
        if now.enqueued != accounted:
            return (
                "class {!r}: {} enqueued but queue+queue_cancelled+released "
                "accounts for {}".format(name, now.enqueued, accounted)
            )
        settled = now.in_flight_count + now.completed + now.cancelled
        if now.released != settled:
            return (
                "class {!r}: {} released but in_flight+completed+cancelled "
                "accounts for {}".format(name, now.released, settled)
            )
    return True


def _check_velocity_range(world: ControlLoopWorld):
    for service_class in world.classes:
        if service_class.kind != "olap":
            continue
        measurement = world.monitor.retained_measurement(service_class.name)
        if measurement is None or measurement.metric != "velocity":
            continue
        value = measurement.value
        if math.isnan(value) or not 0.0 <= value <= 1.0:
            return "class {!r} reports velocity {}".format(service_class.name, value)
    return True


def core_invariants(world: ControlLoopWorld) -> InvariantRegistry:
    """The built-in invariant suite for ``world``.

    Only invariants whose subject components exist are registered, so the
    same suite attaches to a full Query Scheduler or to a baseline bundle.
    """
    registry = InvariantRegistry()
    if world.dispatcher is not None:
        registry.register(
            Invariant(
                name="dispatcher_in_flight_consistent",
                check=_check_dispatcher_accounting,
                message=(
                    "the dispatcher's incremental in-flight cost/count has "
                    "drifted from its own released-query set"
                ),
                severity=Severity.CRITICAL,
            )
        )
        registry.register(
            Invariant(
                name="dispatcher_engine_agreement",
                check=_check_engine_agreement,
                message=(
                    "the dispatcher's in-flight set disagrees with the "
                    "engine's executing set"
                ),
                severity=Severity.CRITICAL,
            )
        )
        registry.register(
            Invariant(
                name="plan_limits_nonnegative",
                check=_check_plan_limits_nonnegative,
                message="the active plan contains a negative class cost limit",
                severity=Severity.CRITICAL,
            )
        )
        registry.register(
            Invariant(
                name="plan_spends_system_limit",
                check=_check_plan_spends_system_limit,
                message=(
                    "the active plan's class limits do not add up to the "
                    "system cost limit (beyond grid quantisation slack)"
                ),
                severity=Severity.ERROR,
            )
        )
        registry.register(
            Invariant(
                name="class_conservation",
                check=_check_class_conservation,
                message=(
                    "per-class query conservation is broken: enqueued != "
                    "queued + queue-cancelled + released, or released != "
                    "in-flight + completed + cancelled"
                ),
                severity=Severity.CRITICAL,
            )
        )
    if world.patroller is not None:
        registry.register(
            Invariant(
                name="control_tables_are_live",
                check=_check_control_tables_are_live,
                message=(
                    "QP's control tables hold a completed or cancelled query "
                    "as an open row (stale-row leak)"
                ),
                severity=Severity.ERROR,
            )
        )
    if world.monitor is not None:
        registry.register(
            Invariant(
                name="velocity_in_unit_interval",
                check=_check_velocity_range,
                message="a measured OLAP velocity left the [0, 1] interval",
                severity=Severity.ERROR,
            )
        )
    return registry


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
class ValidationHarness:
    """Evaluates an invariant registry against the live loop.

    Attach with :meth:`on_plan` as a plan listener or call :meth:`check`
    directly at any simulation time.
    """

    def __init__(
        self,
        world: ControlLoopWorld,
        registry: Optional[InvariantRegistry] = None,
        mode: str = "warn",
    ) -> None:
        if mode not in MODES:
            raise SchedulingError(
                "unknown harness mode {!r}; expected one of {}".format(mode, MODES)
            )
        self.world = world
        self.registry = registry if registry is not None else core_invariants(world)
        self.mode = mode
        self.violations: List[Violation] = []
        self.checks_run = 0

    def on_plan(self, record: ControlIntervalRecord) -> None:
        """Plan-listener hook: validate at a control-interval boundary.

        Violations are embedded into ``record`` — before strict mode
        raises — so they ride along in exports, ``repro trace`` and the
        live hub's ``interval`` events.
        """
        found = self._evaluate(record.time)
        record.violations.extend(v.to_dict() for v in found)
        self._enforce(found)

    def check(self, now: Optional[float] = None) -> List[Violation]:
        """Run every invariant now; record (and maybe raise) violations.

        Violations are appended to the harness's log.  In strict mode any
        violation of severity ERROR or above raises
        :class:`InvariantViolation` after recording.
        """
        found = self._evaluate(self.world.now if now is None else now)
        self._enforce(found)
        return found

    def _evaluate(self, now: float) -> List[Violation]:
        if self.mode == "off":
            return []
        self.checks_run += 1
        found = self.registry.evaluate(self.world, now=now)
        self.violations.extend(found)
        return found

    def _enforce(self, found: List[Violation]) -> None:
        if self.mode != "strict":
            return
        fatal = [v for v in found if v.severity >= Severity.ERROR]
        if fatal:
            raise InvariantViolation("; ".join(v.describe() for v in fatal))


def attach_harness(
    bundle: "SimulationBundle",  # noqa: F821
    mode: str = "warn",
    registry: Optional[InvariantRegistry] = None,
) -> Optional[ValidationHarness]:
    """Wire a validation harness into an assembled experiment bundle.

    With a planner-based controller the harness subscribes as a plan
    listener and embeds violations into each interval's record.  Other
    controllers get a recurring check at the configured control interval.
    Returns the harness, or None when ``mode`` is ``"off"``.
    """
    if mode not in MODES:
        raise SchedulingError(
            "unknown harness mode {!r}; expected one of {}".format(mode, MODES)
        )
    if mode == "off":
        return None
    world = ControlLoopWorld.from_bundle(bundle)
    harness = ValidationHarness(world, registry=registry, mode=mode)
    if world.planner is not None:
        world.planner.add_plan_listener(harness.on_plan)
    else:
        interval = bundle.config.planner.control_interval

        def _periodic() -> None:
            harness.check()
            bundle.sim.schedule(interval, _periodic, label="validation:check")

        bundle.sim.schedule(interval, _periodic, label="validation:check")
    return harness
