"""The Scheduling Planner.

"The Scheduling Planner consults with the Performance Solver at regular
intervals to determine an optimal scheduling plan, and passes this plan to
the Dispatcher" (Section 2).  Each control interval the planner:

1. collects per-class measurements from the Monitor;
2. hands the performance model the interval that just ended (the
   ``learned`` model learns from it; the paper's models are calibrated
   offline, Section 3.2, and ignore it);
3. asks the solver for the utility-optimal plan given the measurements and
   the active limits;
4. installs the plan on the dispatcher and records the whole decision as
   one :class:`~repro.metrics.telemetry.ControlIntervalRecord` — appended
   to :attr:`SchedulingPlanner.history` and handed to every plan listener
   (the record is what Figure 7 plots and what ``repro run --output
   FILE.jsonl`` exports).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import PlannerConfig, SimulationConfig
from repro.core.dispatcher import Dispatcher
from repro.core.modeling.protocol import (
    ClassMixState,
    IntervalObservation,
    MixSnapshot,
    PerformanceModel,
)
from repro.core.modeling.registry import make_model
from repro.core.monitor import ClassMeasurement, Monitor
from repro.core.plan import SchedulingPlan
from repro.core.service_class import ServiceClass
from repro.core.solver import ClassStatus, PerformanceSolver
from repro.core.utility import make_utility
from repro.errors import SchedulingError
from repro.metrics.telemetry import (
    ClassRows,
    ControlIntervalRecord,
    DispatcherClassTelemetry,
    PredictionTelemetry,
    SolverTelemetry,
)
from repro.obs.profiling import IntervalProfiler
from repro.runtime import TimerService

PlanListener = Callable[[ControlIntervalRecord], None]


def make_solver(config: SimulationConfig):
    """The plan allocator ``config`` selects, for any planner-based controller:
    the utility-maximising Performance Solver over the configured model, or
    the model-free deficit heuristic (``planner.allocator == "deficit"``)."""
    planner = config.planner
    if planner.allocator == "deficit":
        from repro.core.heuristic import DeficitAllocator

        return DeficitAllocator(
            system_cost_limit=config.system_cost_limit,
            grid_timerons=planner.grid_timerons,
            min_class_limit=planner.min_class_limit,
        )
    return PerformanceSolver(
        utility=make_utility(
            planner.utility,
            surplus_slope=planner.surplus_slope,
            importance_base=planner.importance_base,
        ),
        model=make_model(planner.model, planner),
        system_cost_limit=config.system_cost_limit,
        grid_timerons=planner.grid_timerons,
        min_class_limit=planner.min_class_limit,
        oltp_target_margin=planner.oltp_target_margin,
    )


class SchedulingPlanner:
    """Closed control loop: measure -> model -> solve -> install.

    ``monitor`` is whatever measures the classes — anything with a
    ``measure_all()`` returning ``{class name: ClassMeasurement}``: the
    Query Scheduler's :class:`Monitor`, or in-engine control's
    completion-window measurement.
    """

    def __init__(
        self,
        sim: TimerService,
        monitor: Monitor,
        dispatcher: Dispatcher,
        solver: PerformanceSolver,
        classes: List[ServiceClass],
        config: PlannerConfig,
    ) -> None:
        config.validate()
        self.sim = sim
        self.monitor = monitor
        self.dispatcher = dispatcher
        self.solver = solver
        self.config = config
        self.classes = list(classes)
        #: Every decision so far, in order — the one list of records; a
        #: :class:`~repro.metrics.telemetry.TelemetryStore` over it is the
        #: queryable/exportable view.
        self.history: List[ControlIntervalRecord] = []
        self._listeners: List[PlanListener] = []
        #: Each record section's name -> position index, one per class set
        #: (shared by every record over that set).
        self._indexes: Dict[Tuple[str, ...], Dict[str, int]] = {}
        #: What the last decision promised per class, and each class's
        #: released total then: the bases of the next record's error and
        #: ``released_this_interval``.
        self._promised: Dict[str, float] = {}
        self._released: Dict[str, int] = {}
        self._started = False
        self._intervals = 0
        self._last_interval_at: Optional[float] = None
        self.early_triggers = 0
        #: Wall-clock self-profiler; tests may replace it with one driven by
        #: a fake clock for deterministic overhead values.
        self.profiler = IntervalProfiler()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def model(self) -> Optional[PerformanceModel]:
        """The solver's performance model (None for model-free allocators
        like the deficit heuristic)."""
        return getattr(self.solver, "model", None)

    @property
    def intervals_run(self) -> int:
        """Control intervals executed so far."""
        return self._intervals

    def add_plan_listener(self, listener: PlanListener) -> None:
        """Subscribe to every plan decision."""
        self._listeners.append(listener)

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish the planner's decision counters into a registry."""
        registry.counter(
            "planner_intervals_total",
            description="Scheduled control intervals executed",
            callback=lambda: self._intervals,
        )
        registry.counter(
            "planner_early_triggers_total",
            description="Detection-driven early re-plans executed",
            callback=lambda: self.early_triggers,
        )

    def start(self) -> None:
        """Schedule the recurring control loop."""
        if self._started:
            raise SchedulingError("planner started twice")
        self._started = True
        self.sim.schedule(
            self.config.control_interval, self._tick, label="planner:tick"
        )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._intervals += 1
        self.run_interval()
        self.sim.schedule(
            self.config.control_interval, self._tick, label="planner:tick"
        )

    def trigger_early(self) -> bool:
        """Run an off-schedule control interval now (detection hook).

        Workload detection (Section 2) can request immediate re-planning
        when it sees an intensity shift, instead of waiting out the fixed
        interval.  Triggers closer than a quarter interval to the last
        interval are refused.  Returns True if an interval actually ran.
        """
        min_spacing = self.config.control_interval / 4.0
        now = self.sim.now
        if self._last_interval_at is not None and now - self._last_interval_at < min_spacing:
            return False
        self.early_triggers += 1
        self.run_interval(trigger="early")
        return True

    def run_interval(self, trigger: str = "scheduled") -> ControlIntervalRecord:
        """One control-interval decision (public for tests and manual use).

        ``trigger`` distinguishes the fixed-interval loop (``"scheduled"``)
        from detection-driven early re-plans (``"early"``).  The returned
        record is built after the plan is installed and the prediction
        pass has run, and before any listener sees it; its ``overhead``
        (real wall-clock, never simulated time) closes before either.
        """
        now = self.sim.now
        self._last_interval_at = now
        self.profiler.begin()
        with self.profiler.section("monitor"):
            measurements = self.monitor.measure_all()
        mix = self._mix_snapshot(measurements, now)
        self._observe_model(mix)
        statuses = [
            ClassStatus(
                service_class=service_class,
                current_limit=self.dispatcher.plan.limit(service_class.name),
                current_value=self._value_of(measurements, service_class.name),
            )
            for service_class in self.classes
        ]
        with self.profiler.section("solver"):
            plan = self.solver.solve(statuses, now=now, mix=mix)
        with self.profiler.section("dispatcher"):
            self.dispatcher.install_plan(plan)
        overhead = self.profiler.finish()
        record = ControlIntervalRecord(
            time=now,
            interval_index=len(self.history),
            trigger=trigger,
            plan=plan,
            measurements=self._rows(
                tuple(measurements),
                ClassMeasurement,
                chain.from_iterable(measurements.values()),
            ),
            predictions=self._prediction_telemetry(
                measurements, self._predict_under(statuses, plan, mix)
            ),
            solver=self._solver_telemetry(plan),
            dispatcher=self._dispatcher_telemetry(),
            overhead=overhead,
        )
        self.history.append(record)
        # Every listener sees the record, also when an earlier one raises
        # (the strict invariant harness does, after writing its violations
        # into the record): the sinks behind it — the live hub — must not
        # lose the very interval that tripped.
        failure: Optional[Exception] = None
        for listener in self._listeners:
            try:
                listener(record)
            except Exception as error:
                if failure is None:
                    failure = error
        if failure is not None:
            raise failure
        return record

    def _predict_under(
        self,
        statuses: List[ClassStatus],
        plan: SchedulingPlan,
        mix: Optional[MixSnapshot] = None,
    ) -> Dict[str, float]:
        """Per-class predicted metric value under the plan just chosen.

        Model-free allocators (the deficit heuristic) expose no
        ``predict_value``; they simply yield an empty prediction set.
        """
        predict = getattr(self.solver, "predict_value", None)
        if predict is None:
            return {}
        return {
            status.service_class.name: predict(
                status, plan.limit(status.service_class.name), mix
            )
            for status in statuses
        }

    def _rows(self, names: Tuple[str, ...], row, fields) -> ClassRows:
        """A record section over ``names``: ``fields`` packed into one tuple,
        behind the class set's shared index."""
        index = self._indexes.get(names)
        if index is None:
            index = self._indexes[names] = {
                name: position for position, name in enumerate(names)
            }
        return ClassRows(index, row, tuple(fields))

    def _prediction_telemetry(
        self,
        measurements: Dict[str, ClassMeasurement],
        predicted: Dict[str, float],
    ) -> ClassRows:
        """Promise under the new plan, realised value, one-step error
        (:class:`PredictionTelemetry` rows).

        The error is this interval's measurement minus what the previous
        decision promised for it.
        """
        promised, self._promised = self._promised, predicted
        names = tuple({**predicted, **measurements})  # class order, no repeats
        fields: List[Optional[float]] = []
        for name in names:
            realized = self._value_of(measurements, name)
            previous = promised.get(name)
            fields += (
                predicted.get(name),
                realized,
                realized - previous
                if realized is not None and previous is not None
                else None,
            )
        return self._rows(names, PredictionTelemetry, fields)

    def _solver_telemetry(self, plan: SchedulingPlan) -> SolverTelemetry:
        """The solver's decision and model state, kept as values: the plan's
        limits view and the model's immutable ``state()``, rendered only on
        export.  Model-free allocators simply yield no objective/model data."""
        model = self.model
        state = model.state() if model is not None else None
        return SolverTelemetry(
            allocation=plan.limits,
            objective=getattr(self.solver, "last_score", None),
            evaluations=getattr(self.solver, "last_evaluations", 0),
            solve_calls=getattr(self.solver, "solve_calls", 0),
            oltp_slope=state.slope if state is not None else None,
            oltp_observations=state.observations if state is not None else None,
            model=state,
        )

    def _dispatcher_telemetry(self) -> ClassRows:
        """Per-class dispatcher accounting right after the plan install
        (:class:`DispatcherClassTelemetry` rows)."""
        class_accounting = self.dispatcher.class_accounting
        released = self._released
        names = tuple([service_class.name for service_class in self.classes])
        fields: List[float] = []
        for name in names:
            now = class_accounting(name)
            fields += (
                now.queue_length,
                now.in_flight_cost,
                now.in_flight_count,
                now.released,
                now.completed,
                now.cancelled,
                now.released - released.get(name, 0),
                now.enqueued,
                now.queue_cancelled,
            )
            released[name] = now.released
        return self._rows(names, DispatcherClassTelemetry, fields)

    @staticmethod
    def _value_of(
        measurements: Dict[str, ClassMeasurement], class_name: str
    ) -> Optional[float]:
        measurement = measurements.get(class_name)
        return measurement.value if measurement is not None else None

    def _mix_snapshot(
        self, measurements: Dict[str, ClassMeasurement], now: float
    ) -> MixSnapshot:
        """The full concurrent mix as mix-aware models see it.

        Limits are the ones *active right now* (the previous decision's
        plan — the solve for this interval has not happened yet), queue
        depths and in-flight load come from the dispatcher.
        """
        states = []
        for service_class in self.classes:
            name = service_class.name
            accounting = self.dispatcher.class_accounting(name)
            # ClassMixState's fields, in order, without its constructor frame.
            states.append(
                tuple.__new__(
                    ClassMixState,
                    (
                        name,
                        service_class.kind,
                        self.dispatcher.plan.limit(name),
                        self._value_of(measurements, name),
                        accounting.queue_length,
                        accounting.in_flight_count,
                        accounting.in_flight_cost,
                    ),
                )
            )
        return tuple.__new__(MixSnapshot, (now, tuple(states)))

    def _observe_model(self, mix: MixSnapshot) -> None:
        """Hand the performance model this interval's observation."""
        model = self.model
        if model is None:
            return
        model.observe(tuple.__new__(IntervalObservation, (mix.time, mix)))
