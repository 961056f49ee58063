"""Direct in-engine workload control (the paper's future work).

Section 5: "The most effective way to manage performance of OLTP workload
is to directly control it.  One approach is to implement the control
mechanism inside the DBMS itself."  This module is that approach, and it is
wiring, not a second framework: the same
:class:`~repro.core.planner.SchedulingPlanner` runs the same
:class:`~repro.core.dispatcher.Dispatcher`, which here gates **every** class
and releases straight into the engine instead of through Query Patroller —
no interception latency, no per-statement CPU overhead, and sub-second OLTP
is gated too.  Direct's own parts are the engine-side adapter
(:class:`DispatcherGate`) and a measurement taken from completions — the
engine sees everything, so no control-table polling or snapshot sampling.

What this buys over the paper's indirect scheme: OLTP classes become
controllable.  When one is *low*-importance — a background write storm —
indirect control is helpless (OLTP bypasses QP entirely) while direct
control throttles it to protect the important classes
(``benchmarks/bench_extension_direct.py``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import MonitorConfig, SimulationConfig
from repro.core.dispatcher import Dispatcher
from repro.core.monitor import ClassMeasurement, fresh_or_retained
from repro.core.plan import SchedulingPlan
from repro.core.planner import SchedulingPlanner, make_solver
from repro.core.service_class import ServiceClass
from repro.dbms.query import Query
from repro.metrics.telemetry import TelemetryStore
from repro.obs.registry import MetricsRegistry
from repro.patroller.patroller import QueryPatroller
from repro.runtime import Clock, ExecutionEngine, TimerService
from repro.sim.stats import SlidingWindow


class DispatcherGate:
    """The engine's ``AdmissionGate`` in front of a dispatcher."""

    def __init__(self, dispatcher: Dispatcher, clock: Clock) -> None:
        self.dispatcher = dispatcher
        self.clock = clock
        self._gated = {c.name for c in dispatcher.gated_classes}

    def admit(self, query: Query) -> bool:
        """False ("the gate took it") after queueing a gated class's statement
        with the dispatcher, which may release it on the spot; True for any
        other class, which passes straight through."""
        if query.class_name not in self._gated:
            return True
        query.queue_time = self.clock.now
        self.dispatcher.enqueue(query)
        return False


class CompletionMeasurement:
    """Per-class goal metric over a sliding window of completions: mean
    velocity for an OLAP class, mean response time for an OLTP class — which
    under direct control still falls as the class's own limit grows (queueing
    delay shrinks), so the linear model's sign convention holds."""

    def __init__(
        self,
        clock: Clock,
        patroller: QueryPatroller,
        classes: List[ServiceClass],
        config: MonitorConfig,
    ) -> None:
        self.clock = clock
        self.config = config
        #: Per class: the goal metric's name — also the ``Query`` attribute
        #: that carries it — and the window of completed statements' values.
        self._windows = {
            c.name: (c.goal.metric, SlidingWindow(capacity=1024)) for c in classes
        }
        self._retained: Dict[str, ClassMeasurement] = {}
        patroller.subscribe("completed", self._on_completion, self._windows)

    def _on_completion(self, query: Query) -> None:
        if query.class_name in self._windows:
            metric, window = self._windows[query.class_name]
            window.add(query.finish_time, getattr(query, metric))

    def measure_all(self) -> Dict[str, ClassMeasurement]:
        """Windowed mean per class; a class whose window ran dry reports its
        last measurement while that is younger than ``max_measurement_age``
        and nothing after (the rule the Monitor applies)."""
        now = self.clock.now
        measured = {}
        for name, (metric, window) in self._windows.items():
            window.evict_older_than(now - self.config.velocity_window)
            fresh = None
            if len(window):
                fresh = tuple.__new__(
                    ClassMeasurement, (name, metric, window.mean, len(window), now)
                )
            value = fresh_or_retained(
                self._retained, name, fresh, now, self.config.max_measurement_age
            )
            if value is not None:
                measured[name] = value
        return measured


class DirectScheduler:
    """In-engine control: the planner over a dispatcher gating every class.

    Exposes what every observer looks for (``planner``, ``dispatcher``,
    ``solver``, ``registry``, ``telemetry``), so telemetry, invariants, fault
    injection and the live hub work as they do for the Query Scheduler.
    """

    name = "direct"

    def __init__(
        self,
        sim: TimerService,
        engine: ExecutionEngine,
        patroller: QueryPatroller,
        classes: List[ServiceClass],
        config: SimulationConfig,
    ) -> None:
        config.validate()
        self.classes = classes = list(classes)
        self.config = config
        names = [c.name for c in classes]
        self.dispatcher = Dispatcher(
            classes,
            SchedulingPlan.even_split(names, config.system_cost_limit, sim.now),
            release=engine.admit_released,
            clock=sim,
            gated=names,
            discipline=config.planner.queue_discipline,
        )
        patroller.subscribe("completed", self.dispatcher.on_completion, names)
        engine.set_admission_gate(DispatcherGate(self.dispatcher, sim))
        self.measurement = CompletionMeasurement(
            sim, patroller, classes, config.monitor
        )
        self.solver = make_solver(config)
        self.planner = SchedulingPlanner(
            sim, self.measurement, self.dispatcher, self.solver, classes, config.planner
        )
        self.telemetry = TelemetryStore(self.planner.history)
        self.registry = MetricsRegistry()
        for component in (self.dispatcher, self.solver, self.planner):
            component.register_instruments(self.registry)

    def start(self) -> None:
        """Begin the periodic re-planning loop."""
        self.planner.start()

    def describe(self) -> str:
        """One-line description for reports."""
        return "Direct in-engine control ({} classes, interval {:.0f}s)".format(
            len(self.classes), self.config.planner.control_interval
        )

    @property
    def plan(self) -> SchedulingPlan:
        """The currently enforced plan."""
        return self.dispatcher.plan
