"""The Dispatcher.

"The Dispatcher receives a scheduling plan from the Scheduling Planner and
releases the queries in the class queues according to the plan ... as long
as the addition of a new query does not mean that the cost limit for the
query's class is exceeded.  The Dispatcher releases a query for execution by
calling the unblocking API provided by DB2 QP" (Section 2).

Per class the dispatcher keeps a queue and the estimated cost currently in
flight.  Which classes it *gates* (queues and releases for) and how a
release is carried out are constructor arguments: the Query Scheduler gates
the directly controlled classes and releases through Query Patroller's
unblocking API — the OLTP class is never queued, its plan limit is a
capacity *reservation* that shrinks what the OLAP classes may use
(Section 3) — while in-engine control (:mod:`repro.core.direct`) gates
every class and releases straight into the engine.

Within-class ordering is a design axis the paper leaves implicit (FIFO);
three *queue disciplines* are provided:

* ``"fifo"`` — arrival order (the paper's behaviour; default);
* ``"sjf"`` — cheapest estimated cost first, which packs more queries under
  a tight limit and lifts mean velocity at the tail's expense;
* ``"aging"`` — cost discounted by waiting time, a compromise that keeps
  monsters from starving under SJF.

One deliberate liveness rule beyond the paper's text: a query whose
estimated cost alone exceeds its class limit is released when the class has
nothing in flight, so a mis-estimated monster cannot wedge its class forever.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional

#: Accepted queue disciplines.
DISCIPLINES = ("fifo", "sjf", "aging")

#: Timerons of effective-cost discount per second of waiting ("aging").
_AGING_RATE = 50.0

from repro.core.plan import SchedulingPlan
from repro.core.service_class import ServiceClass
from repro.runtime import Clock
from repro.dbms.query import Query, QueryState
from repro.errors import SchedulingError


class ClassAccounting(NamedTuple):
    """One class's numbers as :meth:`Dispatcher.class_accounting` read them;
    ``in_flight`` is a read-only live view of ``_ClassState.in_flight``."""

    queue_length: int
    in_flight_cost: float
    in_flight_count: int
    released: int
    completed: int
    cancelled: int
    enqueued: int
    queue_cancelled: int
    in_flight: Mapping[int, Query]


class _ClassState:
    """Dispatcher-side bookkeeping for one service class.

    The monotone per-class totals (enqueued/released/completed/cancelled/
    queue-cancelled) are the same numbers that drive the conservation
    invariants; :meth:`Dispatcher.register_instruments` publishes them,
    with queue length and in-flight cost/count, as live reads.
    """

    __slots__ = (
        "service_class",
        "queue",
        "in_flight_cost",
        "in_flight_count",
        "in_flight",
        "enqueued",
        "released",
        "completed",
        "cancelled",
        "queue_cancelled",
    )

    def __init__(self, service_class: ServiceClass) -> None:
        self.service_class = service_class
        self.queue: List[Query] = []
        self.in_flight_cost = 0.0
        self.in_flight_count = 0
        #: The queries this dispatcher released and not yet retired, by id —
        #: the ground truth the cost/count pair must always agree with.
        self.in_flight: Dict[int, Query] = {}
        self.enqueued = 0
        self.released = 0
        self.completed = 0
        self.cancelled = 0
        self.queue_cancelled = 0

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish this class's live numbers, labelled with its name."""
        labels = {"class": self.service_class.name}
        registry.counter(
            "dispatcher_enqueued_total",
            description="Queries ever placed in a class queue",
            labels=labels,
            callback=lambda: self.enqueued,
        )
        registry.counter(
            "dispatcher_released_total",
            description="Queries released for execution",
            labels=labels,
            callback=lambda: self.released,
        )
        registry.counter(
            "dispatcher_completed_total",
            description="Released queries that finished execution",
            labels=labels,
            callback=lambda: self.completed,
        )
        registry.counter(
            "dispatcher_cancelled_total",
            description="Released queries cancelled before completion",
            labels=labels,
            callback=lambda: self.cancelled,
        )
        registry.counter(
            "dispatcher_queue_cancelled_total",
            description="Queries cancelled while still queued",
            labels=labels,
            callback=lambda: self.queue_cancelled,
        )
        registry.gauge(
            "dispatcher_queue_length",
            description="Queries waiting for release",
            labels=labels,
            callback=lambda: len(self.queue),
        )
        registry.gauge(
            "dispatcher_in_flight_cost",
            description="Estimated timerons of released-but-unfinished queries",
            labels=labels,
            callback=lambda: self.in_flight_cost,
        )
        registry.gauge(
            "dispatcher_in_flight_count",
            description="Released-but-unfinished queries",
            labels=labels,
            callback=lambda: self.in_flight_count,
        )

    def retire(self, query: Query) -> None:
        """Drop a released query from the in-flight accounting."""
        self.in_flight.pop(query.query_id, None)
        self.in_flight_cost -= query.estimated_cost
        self.in_flight_count -= 1
        if not self.in_flight:
            # Snap residual float drift so an idle class is exactly zero.
            self.in_flight_cost = 0.0
            self.in_flight_count = 0
        elif self.in_flight_cost < 0:
            self.in_flight_cost = 0.0


class Dispatcher:
    """Releases queued queries under the active plan's class cost limits."""

    def __init__(
        self,
        classes: List[ServiceClass],
        initial_plan: SchedulingPlan,
        release: Callable[[Query], None],
        clock: Clock,
        gated: Iterable[str],
        discipline: str = "fifo",
    ) -> None:
        if discipline not in DISCIPLINES:
            raise SchedulingError(
                "unknown queue discipline {!r}; expected one of {}".format(
                    discipline, DISCIPLINES
                )
            )
        #: How a queued query is let go: QP's unblocking API, or the
        #: engine's own ``admit_released`` under in-engine control.
        self.release = release
        self.clock = clock
        self.discipline = discipline
        self._states: Dict[str, _ClassState] = {
            c.name: _ClassState(c) for c in classes
        }
        for name in initial_plan:
            self._state(name)
        #: The states this dispatcher queues and releases for: the only
        #: ones a completion or cancellation is looked up in.  The other
        #: classes are known (their plan limits reserve capacity) but their
        #: queries never pass through here.
        self._controlled = {name: self._state(name) for name in gated}
        self._plan = initial_plan

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> SchedulingPlan:
        """The currently active scheduling plan."""
        return self._plan

    @property
    def gated_classes(self) -> List[ServiceClass]:
        """The classes this dispatcher queues and releases for."""
        return [state.service_class for state in self._controlled.values()]

    def class_accounting(self, class_name: str) -> ClassAccounting:
        """Everything kept for the class in one look-up — the one read path
        for its numbers: what the planner and the validation harness read
        each interval, once per class.  Queue-level cancels never consume
        in-flight budget, so ``queue_cancelled`` counts them apart from
        ``cancelled`` (post-release cancels)."""
        state = self._state(class_name)
        # tuple.__new__: the row without its generated constructor's frame.
        return tuple.__new__(
            ClassAccounting,
            (
                len(state.queue),
                state.in_flight_cost,
                state.in_flight_count,
                state.released,
                state.completed,
                state.cancelled,
                state.enqueued,
                state.queue_cancelled,
                MappingProxyType(state.in_flight),
            ),
        )

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish the per-class totals and gauges into a registry."""
        for state in self._states.values():
            state.register_instruments(registry)

    def _state(self, class_name: str) -> _ClassState:
        state = self._states.get(class_name)
        if state is None:
            raise SchedulingError("dispatcher knows no class {!r}".format(class_name))
        return state

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def install_plan(self, plan: SchedulingPlan) -> int:
        """Adopt a new plan; releases anything the new limits now allow.

        Returns the number of queries released as a direct consequence.
        In-flight queries are never revoked — a lowered limit simply stops
        further releases until enough queries drain (Section 2's semantics).
        """
        for name in plan:
            self._state(name)
        self._plan = plan
        return self._release_eligible()

    def enqueue(self, query: Query) -> None:
        """Queue a query of a gated class for release."""
        state = self._controlled.get(query.class_name)
        if state is None:
            raise SchedulingError(
                "class {!r} is not gated by this dispatcher (unknown, or its "
                "queries must bypass it)".format(query.class_name)
            )
        state.queue.append(query)
        state.enqueued += 1
        self._release_eligible_for(state)

    # ------------------------------------------------------------------
    # Release machinery
    # ------------------------------------------------------------------
    def _limit_for(self, state: _ClassState) -> Optional[float]:
        if state.service_class.name in self._plan:
            return self._plan.limit(state.service_class.name)
        return None

    def _select_index(self, state: _ClassState) -> Optional[int]:
        """Pick which queued query the discipline would release next."""
        queue = state.queue
        if not queue:
            return None
        if self.discipline == "fifo":
            return 0
        now = self.clock.now
        if self.discipline == "sjf":
            return min(range(len(queue)), key=lambda i: queue[i].estimated_cost)

        def aged_cost(index: int) -> float:
            query = queue[index]
            waited = now - (query.queue_time if query.queue_time is not None else now)
            return query.estimated_cost - _AGING_RATE * waited

        return min(range(len(queue)), key=aged_cost)

    def _find_fitting_aged(
        self, state: _ClassState, limit: float
    ) -> Optional[int]:
        """Next-best aged candidate that fits under the limit (aging only).

        Under "aging" the min-aged-cost query can be costlier than another
        queued query that would fit; stopping at the selected query would
        stall the whole class behind it (head-of-line blocking), so the
        remaining candidates are scanned in aged-cost order for one that
        fits.  FIFO keeps strict arrival order and SJF's selected query is
        already the cheapest, so neither needs (or gets) the scan.
        """
        now = self.clock.now

        def aged_cost(index: int) -> float:
            query = state.queue[index]
            waited = now - (query.queue_time if query.queue_time is not None else now)
            return query.estimated_cost - _AGING_RATE * waited

        for index in sorted(range(len(state.queue)), key=aged_cost):
            if state.in_flight_cost + state.queue[index].estimated_cost <= limit:
                return index
        return None

    def _release_eligible_for(self, state: _ClassState) -> int:
        # Purge abandoned queries once per call (QP cancel), counting them
        # so queue-level cancellations stay visible in telemetry.
        # Cancellations arrive through on_cancellation between calls, so no
        # new tombstones can appear while the release loop below runs.
        if any(q.state == QueryState.CANCELLED for q in state.queue):
            live = [q for q in state.queue if q.state != QueryState.CANCELLED]
            state.queue_cancelled += len(state.queue) - len(live)
            state.queue = live
        limit = self._limit_for(state)
        released = 0
        while state.queue:
            index = self._select_index(state)
            if index is None:
                break
            query = state.queue[index]
            if limit is not None:
                fits = state.in_flight_cost + query.estimated_cost <= limit
                alone = state.in_flight_count == 0
                if not fits and not alone:
                    if self.discipline != "aging":
                        break
                    index = self._find_fitting_aged(state, limit)
                    if index is None:
                        break
                    query = state.queue[index]
            state.queue.pop(index)
            state.in_flight_cost += query.estimated_cost
            state.in_flight_count += 1
            state.in_flight[query.query_id] = query
            state.released += 1
            self.release(query)
            released += 1
        return released

    def _release_eligible(self) -> int:
        released = 0
        for state in self._controlled.values():
            released += self._release_eligible_for(state)
        return released

    def on_completion(self, query: Query) -> None:
        """Hook for the patroller's ``completed`` event."""
        state = self._controlled.get(query.class_name)
        if state is None:
            return
        if query.query_id not in state.in_flight:
            # Completion of a query this dispatcher never released (e.g. a
            # different controller ran earlier in the same engine) — ignore.
            return
        state.retire(query)
        state.completed += 1
        self._release_eligible_for(state)

    def on_cancellation(self, query: Query) -> None:
        """Hook for the patroller's ``cancelled`` event.

        A query cancelled after release (while its agent unblock was still
        in flight) never reaches the engine, so no completion will ever
        retire it — release its slot here or the class limit shrinks
        permanently.  A query cancelled while still queued is removed
        immediately so queue lengths stay truthful.
        """
        state = self._controlled.get(query.class_name)
        if state is None:
            return
        if query.query_id in state.in_flight:
            state.retire(query)
            state.cancelled += 1
            self._release_eligible_for(state)
            return
        for index, queued in enumerate(state.queue):
            if queued.query_id == query.query_id:
                state.queue.pop(index)
                state.queue_cancelled += 1
                break
