"""The pre-swap in-engine gate, kept as the dispatcher's reference.

This is ``repro.core.direct.EngineGate`` exactly as it stood at the commit
that made it FIFO, before ``direct`` moved onto the shared
:class:`~repro.core.dispatcher.Dispatcher`: a private per-class queue, the
``fits or alone`` rule and in-flight accounting, ~120 lines.
``tests/core/test_direct_equivalence.py`` drives it and the
dispatcher-behind-``DispatcherGate`` with the same arrivals, completions
and plan installs and requires equal admissions.  It is a test reference,
not part of the package; the one change since is that it hears completions
from the patroller's ``completed`` event, the engine's only completion
path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.core.plan import SchedulingPlan
from repro.core.service_class import ServiceClass
from repro.dbms.query import Query
from repro.errors import SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.runtime import ExecutionEngine


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
        patroller: QueryPatroller,
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
        patroller.subscribe("completed", self._on_completion)
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
