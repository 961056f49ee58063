"""The Query Scheduler facade (paper Figure 1).

Wires the full pipeline onto a database engine and its Query Patroller:

* QP intercepts queries of the directly controlled (OLAP) classes into its
  control tables, which the **Monitor** reads, and hands each to the
  **Dispatcher**, whose per-class queue lookup is the paper's **Classifier**
  (a statement of a class it does not gate is refused);
* the **Scheduling Planner** periodically consults the **Performance
  Solver** (utility maximisation over the performance models) and installs
  the resulting plan on the Dispatcher;
* the Dispatcher releases queries under the class cost limits through QP's
  unblocking API.

The OLTP class is never intercepted (QP is "turned off" for it); its plan
limit acts purely as a reservation that bounds the OLAP classes — the
paper's indirect control (Section 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.config import SimulationConfig
from repro.core.dispatcher import Dispatcher
from repro.core.monitor import Monitor
from repro.core.plan import SchedulingPlan
from repro.core.planner import SchedulingPlanner, make_solver
from repro.core.service_class import ServiceClass
from repro.errors import SchedulingError
from repro.metrics.telemetry import TelemetryStore
from repro.obs.registry import MetricsRegistry
from repro.patroller.patroller import QueryPatroller
from repro.runtime import ExecutionEngine, TimerService

if TYPE_CHECKING:
    from repro.core.detection import WorkloadDetector


class QueryScheduler:
    """The paper's prototype: dynamic cost-based workload adaptation."""

    name = "query_scheduler"

    def __init__(
        self,
        sim: TimerService,
        engine: ExecutionEngine,
        patroller: QueryPatroller,
        classes: List[ServiceClass],
        config: SimulationConfig,
    ) -> None:
        config.validate()
        if not classes:
            raise SchedulingError("QueryScheduler needs at least one service class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise SchedulingError("duplicate service class names: {}".format(names))
        oltp_classes = [c.name for c in classes if c.kind == "oltp"]
        if len(oltp_classes) > 1:
            # Indirect control cannot tell two bypassing classes apart: one
            # reservation, one response-time model (Section 3).
            raise SchedulingError(
                "the paper's framework models a single OLTP class; got {}".format(
                    oltp_classes
                )
            )
        self.sim = sim
        self.engine = engine
        self.patroller = patroller
        self.classes = list(classes)
        self.config = config

        controlled = [c.name for c in self.classes if c.directly_controlled]
        patroller.intercept_only(controlled)
        #: One instrument registry for the whole controller: the Dispatcher,
        #: Monitor, Planner, Solver, Patroller and (optional) detector all
        #: publish their live reads into it.
        self.registry = MetricsRegistry()
        self.dispatcher = Dispatcher(
            self.classes,
            SchedulingPlan.even_split(
                names, config.system_cost_limit, created_at=sim.now
            ),
            release=patroller.release,
            clock=sim,
            gated=controlled,
            discipline=config.planner.queue_discipline,
        )
        # Each listener hears only the classes it acts on: the bypassing
        # OLTP statements reach neither the dispatcher nor the monitor.
        patroller.subscribe("completed", self.dispatcher.on_completion, controlled)
        patroller.subscribe("cancelled", self.dispatcher.on_cancellation, controlled)
        self.monitor = Monitor(
            sim, engine, patroller.tables, self.classes, config.monitor
        )
        patroller.subscribe(
            "completed", self.monitor.on_completed, self.monitor.velocity_classes
        )
        self.solver = make_solver(config)
        self.planner = SchedulingPlanner(
            sim, self.monitor, self.dispatcher, self.solver, self.classes, config.planner
        )
        #: Queryable/exportable view over the planner's own record list.
        self.telemetry = TelemetryStore(self.planner.history)
        patroller.set_release_handler(self.dispatcher.enqueue)
        self.dispatcher.register_instruments(self.registry)
        self.monitor.register_instruments(self.registry)
        self.solver.register_instruments(self.registry)
        self.planner.register_instruments(self.registry)
        patroller.register_instruments(self.registry)
        self.detector: Optional[WorkloadDetector] = None
        self._started = False

    def enable_detection(self) -> WorkloadDetector:
        """Attach explicit workload detection (Section 2's first process).

        The detector characterises per-class arrival rates from the submit
        path (it sees the OLTP traffic QP never intercepts) and triggers an
        early re-plan on intensity shifts, cutting reaction latency below
        the fixed control interval.  Call before :meth:`start`.
        """
        if self.detector is not None:
            raise SchedulingError("detection already enabled")
        from repro.core.detection import WorkloadDetector

        detector = WorkloadDetector(self.sim, self.classes)
        self.patroller.subscribe("submitted", detector.observe)
        detector.add_shift_listener(lambda event: self.planner.trigger_early())
        detector.register_instruments(self.registry)
        self.detector = detector
        if self._started:
            detector.start()
        return detector

    def start(self) -> None:
        """Begin monitoring and the planning control loop."""
        if self._started:
            raise SchedulingError("QueryScheduler started twice")
        self._started = True
        self.monitor.start()
        self.planner.start()
        if self.detector is not None:
            self.detector.start()

    @property
    def plan(self) -> SchedulingPlan:
        """The currently active scheduling plan."""
        return self.dispatcher.plan

    def describe(self) -> str:
        """One-line description for reports."""
        return (
            "Query Scheduler (dynamic cost-based control, {} classes, "
            "interval {:.0f}s, utility {!r})".format(
                len(self.classes),
                self.config.planner.control_interval,
                self.config.planner.utility,
            )
        )
