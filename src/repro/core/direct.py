"""Direct in-engine workload control (the paper's future work).

Section 5: "The most effective way to manage performance of OLTP workload
is to directly control it.  One approach is to implement the control
mechanism inside the DBMS itself."  This module is that approach, built on
the engine's admission-gate hook:

* :class:`EngineGate` — per-class FIFO queues and cost limits enforced at
  statement admission, *inside* the engine: no interception latency, no
  per-statement CPU overhead, and every class (including sub-second OLTP)
  is gated.
* :class:`DirectScheduler` — the control loop: measures each class
  directly from completions (the engine sees everything, no snapshot
  sampling needed), and re-plans class cost limits with the same
  utility-maximising :class:`~repro.core.solver.PerformanceSolver`.

What this buys over the paper's indirect scheme: the OLTP class itself
becomes controllable.  Under the paper's assumption (OLTP most important)
the two coincide; when the OLTP class is *low*-importance — say a
background write storm — indirect control is helpless (OLTP bypasses QP
entirely) while direct control can throttle it to protect important OLAP
classes (see ``benchmarks/bench_extension_direct.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.config import PlannerConfig, SimulationConfig
from repro.core.modeling import (
    ClassMixState,
    IntervalObservation,
    MixSnapshot,
    make_model,
)
from repro.core.plan import SchedulingPlan
from repro.core.service_class import ServiceClass
from repro.core.solver import ClassStatus, PerformanceSolver
from repro.core.utility import make_utility
from repro.dbms.query import Query
from repro.errors import SchedulingError
from repro.runtime import ExecutionEngine, TimerService
from repro.sim.stats import SlidingWindow


class _GateClassState:
    """Gate-side bookkeeping for one service class."""

    __slots__ = ("service_class", "queue", "in_flight_cost", "in_flight_count", "released")

    def __init__(self, service_class: ServiceClass) -> None:
        self.service_class = service_class
        self.queue: Deque[Query] = deque()
        self.in_flight_cost = 0.0
        self.in_flight_count = 0
        self.released = 0


class EngineGate:
    """In-engine admission gate: class cost limits with zero overhead.

    Implements the engine's ``AdmissionGate`` protocol: ``admit(query)``
    returns True to let the statement through immediately or False to take
    ownership (the gate re-admits it later via ``engine.admit_released``).
    """

    def __init__(
        self,
        engine: ExecutionEngine,
        classes: List[ServiceClass],
        initial_plan: SchedulingPlan,
    ) -> None:
        self.engine = engine
        self._states: Dict[str, _GateClassState] = {
            c.name: _GateClassState(c) for c in classes
        }
        for name in initial_plan:
            if name not in self._states:
                raise SchedulingError("plan covers unknown class {!r}".format(name))
        self._plan = initial_plan
        self._gated: Dict[int, str] = {}  # query_id -> class (for accounting)
        engine.add_completion_listener(self._on_completion)
        engine.set_admission_gate(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> SchedulingPlan:
        """The currently enforced plan."""
        return self._plan

    def queue_length(self, class_name: str) -> int:
        """Statements of the class waiting for admission."""
        return len(self._state(class_name).queue)

    def in_flight_cost(self, class_name: str) -> float:
        """Estimated cost of the class's admitted, unfinished statements."""
        return self._state(class_name).in_flight_cost

    def in_flight_count(self, class_name: str) -> int:
        """Admitted, unfinished statements of the class."""
        return self._state(class_name).in_flight_count

    def released_count(self, class_name: str) -> int:
        """Total statements of the class admitted so far."""
        return self._state(class_name).released

    def _state(self, class_name: str) -> _GateClassState:
        state = self._states.get(class_name)
        if state is None:
            raise SchedulingError("gate knows no class {!r}".format(class_name))
        return state

    # ------------------------------------------------------------------
    # AdmissionGate protocol
    # ------------------------------------------------------------------
    def admit(self, query: Query) -> bool:
        """Engine hook: immediately admit, or queue and return False."""
        state = self._states.get(query.class_name)
        if state is None:
            return True  # unmanaged class: pass through
        # FIFO within the class: a newcomer never overtakes queued statements,
        # or a costly head can starve behind a stream of cheap arrivals.
        if not state.queue and self._eligible(state, query):
            self._account_admission(state, query)
            return True
        state.queue.append(query)
        return False

    def install_plan(self, plan: SchedulingPlan) -> int:
        """Adopt a new plan, admitting whatever the new limits allow."""
        for name in plan:
            if name not in self._states:
                raise SchedulingError("plan covers unknown class {!r}".format(name))
        self._plan = plan
        admitted = 0
        for state in self._states.values():
            admitted += self._drain(state)
        return admitted

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _eligible(self, state: _GateClassState, query: Query) -> bool:
        if state.service_class.name not in self._plan:
            return True
        limit = self._plan.limit(state.service_class.name)
        fits = state.in_flight_cost + query.estimated_cost <= limit
        alone = state.in_flight_count == 0
        return fits or alone

    def _account_admission(self, state: _GateClassState, query: Query) -> None:
        state.in_flight_cost += query.estimated_cost
        state.in_flight_count += 1
        state.released += 1
        self._gated[query.query_id] = state.service_class.name

    def _drain(self, state: _GateClassState) -> int:
        admitted = 0
        while state.queue and self._eligible(state, state.queue[0]):
            query = state.queue.popleft()
            self._account_admission(state, query)
            self.engine.admit_released(query)
            admitted += 1
        return admitted

    def _on_completion(self, query: Query) -> None:
        class_name = self._gated.pop(query.query_id, None)
        if class_name is None:
            return
        state = self._states[class_name]
        state.in_flight_cost -= query.estimated_cost
        state.in_flight_count -= 1
        if state.in_flight_cost < 0:
            state.in_flight_cost = 0.0
        self._drain(state)


class DirectScheduler:
    """The in-engine control loop (future-work extension).

    Measures every class from completed statements over a sliding window
    (inside the engine there is no need for control-table polling or
    snapshot sampling), and re-plans with the shared solver.  OLAP classes
    keep the velocity model; the OLTP class keeps the linear response-time
    model — under direct control its response time still falls as its own
    limit grows (queueing delay shrinks), so the sign convention holds.
    """

    name = "direct"

    def __init__(
        self,
        sim: TimerService,
        engine: ExecutionEngine,
        classes: List[ServiceClass],
        config: SimulationConfig,
        initial_plan: Optional[SchedulingPlan] = None,
    ) -> None:
        config.validate()
        if not classes:
            raise SchedulingError("DirectScheduler needs at least one class")
        self.sim = sim
        self.engine = engine
        self.classes = list(classes)
        self.config = config
        if initial_plan is None:
            initial_plan = SchedulingPlan.even_split(
                [c.name for c in classes], config.system_cost_limit, created_at=sim.now
            )
        self.gate = EngineGate(engine, self.classes, initial_plan)
        planner: PlannerConfig = config.planner
        self.solver = PerformanceSolver(
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
        self._windows: Dict[str, SlidingWindow] = {
            c.name: SlidingWindow(capacity=1024) for c in self.classes
        }
        self._last_value: Dict[str, float] = {}
        self.plans: List[SchedulingPlan] = []
        self._started = False
        self.intervals_run = 0
        engine.add_completion_listener(self._on_completion)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic re-planning loop."""
        if self._started:
            raise SchedulingError("DirectScheduler started twice")
        self._started = True
        self.sim.schedule(
            self.config.planner.control_interval, self._tick, label="direct:tick"
        )

    def describe(self) -> str:
        """One-line description for reports."""
        return "Direct in-engine control ({} classes, interval {:.0f}s)".format(
            len(self.classes), self.config.planner.control_interval
        )

    @property
    def plan(self) -> SchedulingPlan:
        """The currently enforced plan."""
        return self.gate.plan

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _on_completion(self, query: Query) -> None:
        window = self._windows.get(query.class_name)
        if window is None:
            return
        if query.kind == "olap":
            window.add(query.finish_time, query.velocity)
        else:
            window.add(query.finish_time, query.response_time)

    def measure(self, class_name: str) -> Optional[float]:
        """Windowed mean of the class's goal metric (None if no data)."""
        window = self._windows[class_name]
        window.evict_older_than(self.sim.now - self.config.monitor.velocity_window)
        if len(window) == 0:
            return self._last_value.get(class_name)
        value = window.mean
        self._last_value[class_name] = value
        return value

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def run_interval(self) -> SchedulingPlan:
        """One measurement + re-plan round (public for tests)."""
        now = self.sim.now
        values = {c.name: self.measure(c.name) for c in self.classes}
        mix = self._mix_snapshot(values, now)
        model = getattr(self.solver, "model", None)
        if model is not None:
            model.observe(IntervalObservation(time=now, mix=mix))
        statuses = [
            ClassStatus(
                service_class=service_class,
                current_limit=self.gate.plan.limit(service_class.name),
                current_value=values[service_class.name],
            )
            for service_class in self.classes
        ]
        plan = self.solver.solve(statuses, now=now, mix=mix)
        self.gate.install_plan(plan)
        self.plans.append(plan)
        self.intervals_run += 1
        return plan

    def _mix_snapshot(
        self, values: Dict[str, Optional[float]], now: float
    ) -> MixSnapshot:
        """The concurrent-mix view of the gate, for mix-aware models."""
        states = tuple(
            ClassMixState(
                name=c.name,
                kind=c.kind,
                limit=self.gate.plan.limit(c.name),
                value=values[c.name],
                queue_length=self.gate.queue_length(c.name),
                in_flight_count=self.gate.in_flight_count(c.name),
                in_flight_cost=self.gate.in_flight_cost(c.name),
            )
            for c in self.classes
        )
        return MixSnapshot(time=now, classes=states)

    def _tick(self) -> None:
        self.run_interval()
        self.sim.schedule(
            self.config.planner.control_interval, self._tick, label="direct:tick"
        )
