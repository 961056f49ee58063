"""The Query Patroller interceptor.

Responsibilities, mirroring DB2 QP as the paper uses it (Section 2):

* **Interception** — queries of *enabled* classes are intercepted: after an
  interception latency the statement opens a row in the control tables,
  extra CPU overhead is charged to it, and the submitting agent blocks.  A
  held statement is an open row in state ``QUEUED``; its row closes when it
  is cancelled, rejected or completes.
* **Bypass** — queries of classes QP is turned off for (the OLTP class in
  every experiment, Section 3) go straight to the engine with no overhead.
* **Release** — the unblocking API: ``release(query)`` lets a held query
  proceed into the engine after a small release latency.

Whoever performs workload control (the paper's Query Scheduler dispatcher,
or QP's own static policy) registers itself as the *release handler* and is
handed every intercepted query; it then decides when to call ``release``.

:meth:`QueryPatroller.subscribe` is the one place to observe a statement's
lifecycle: the patroller also installs the engine's completion hook and
re-announces each completion as ``completed``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.config import PatrollerConfig
from repro.dbms.query import CPU, Phase, Query, QueryState
from repro.errors import PatrollerError
from repro.patroller.tables import ControlTables
from repro.runtime import ExecutionEngine, TimerHandle, TimerService

ReleaseHandler = Callable[[Query], None]
#: Observer of one lifecycle transition; called with the query.
LifecycleListener = Callable[[Query], None]

#: The lifecycle transitions :meth:`QueryPatroller.subscribe` accepts, in
#: natural order.
LIFECYCLE_EVENTS = (
    "submitted",
    "intercepted",
    "released",
    "cancelled",
    "rejected",
    "completed",
)


class QueryPatroller:
    """Interception layer between clients and the database engine."""

    def __init__(
        self,
        sim: TimerService,
        engine: ExecutionEngine,
        config: PatrollerConfig,
    ) -> None:
        config.validate()
        self.sim = sim
        self.engine = engine
        self.config = config
        self.tables = ControlTables()
        self._intercepted_classes: Set[str] = set()
        self._release_handler: Optional[ReleaseHandler] = None
        #: Released queries whose engine hand-off is still in flight
        #: (release-latency window); maps query id to the pending event.
        self._pending_release: Dict[int, TimerHandle] = {}
        self._intercepted_count = 0
        self._bypassed_count = 0
        self._listeners: Dict[str, List[LifecycleListener]] = {
            event: [] for event in LIFECYCLE_EVENTS
        }
        engine.set_completion_hook(self._on_completion)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def enable_for_class(self, class_name: str) -> None:
        """Turn interception on for a service class."""
        self._intercepted_classes.add(class_name)

    def disable_for_class(self, class_name: str) -> None:
        """Turn interception off for a service class (queries bypass QP)."""
        self._intercepted_classes.discard(class_name)

    def intercept_only(self, class_names: Iterable[str]) -> None:
        """Turn interception on for exactly these classes, off for the rest
        — every controller's "QP on for OLAP, off for OLTP" (Section 3)."""
        self._intercepted_classes = set(class_names)

    def intercepts(self, class_name: str) -> bool:
        """Whether queries of this class are currently intercepted."""
        return class_name in self._intercepted_classes

    def set_release_handler(self, handler: ReleaseHandler) -> None:
        """Install the controller that decides when held queries release."""
        self._release_handler = handler

    def subscribe(self, event: str, listener: LifecycleListener) -> None:
        """Observe one of :data:`LIFECYCLE_EVENTS`; ``listener(query)`` runs
        synchronously at the transition instant, in subscription order.

        ``submitted`` sees every statement (bypassed ones too — workload
        detection needs the OLTP traffic the control tables never hold);
        ``cancelled`` is where accounting layers (dispatcher, monitor,
        static policy) release what they hold for a statement that will
        never complete; ``completed`` fires once per statement the engine
        finishes, bypassed ones too; the tracer subscribes to all six.
        """
        listeners = self._listeners.get(event)
        if listeners is None:
            raise PatrollerError(
                "unknown lifecycle event {!r}; expected one of {}".format(
                    event, LIFECYCLE_EVENTS
                )
            )
        listeners.append(listener)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def held_queries(self) -> int:
        """Queries currently intercepted and not yet released: the open
        control-table rows in state ``QUEUED``."""
        return sum(1 for query in self.tables.open() if query.state is QueryState.QUEUED)

    @property
    def intercepted_count(self) -> int:
        """Total queries ever intercepted."""
        return self._intercepted_count

    @property
    def bypassed_count(self) -> int:
        """Total queries that went straight to the engine."""
        return self._bypassed_count

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish QP's live counters into an instrument registry."""
        registry.counter(
            "patroller_intercepted_total",
            description="Statements intercepted by Query Patroller",
            callback=lambda: self._intercepted_count,
        )
        registry.counter(
            "patroller_bypassed_total",
            description="Statements that bypassed interception",
            callback=lambda: self._bypassed_count,
        )
        registry.gauge(
            "patroller_held_queries",
            description="Statements currently intercepted and not released",
            callback=lambda: self.held_queries,
        )

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> None:
        """Entry point for every statement leaving a client."""
        query.submit_time = self.sim.now
        for listener in self._listeners["submitted"]:
            listener(query)
        if query.class_name not in self._intercepted_classes:
            self._bypassed_count += 1
            self.engine.execute(query)
            return
        self._intercepted_count += 1
        self.sim.schedule(
            self.config.interception_latency,
            lambda: self._intercept(query),
            "qp:intercept",
        )

    def _intercept(self, query: Query) -> None:
        query.intercept_time = self.sim.now
        if self.config.overhead_cpu_demand > 0:
            # QP's bookkeeping burns server CPU on behalf of the statement.
            query.phases = (Phase(CPU, self.config.overhead_cpu_demand),) + query.phases
        query.state = QueryState.QUEUED
        self.tables.record(query)
        query.queue_time = self.sim.now
        for listener in self._listeners["intercepted"]:
            listener(query)
        if self._release_handler is None:
            raise PatrollerError(
                "query {} intercepted with no release handler installed".format(
                    query.query_id
                )
            )
        self._release_handler(query)

    def release(self, query: Query) -> None:
        """The unblocking API: let a held query proceed into the engine."""
        if not self._holds(query):
            raise PatrollerError(
                "release of query {} which is not held".format(query.query_id)
            )
        query.state = QueryState.RELEASED
        # The release decision marks the start of "running in the DBMS":
        # the release latency is execution overhead, not scheduler hold time.
        query.release_time = self.sim.now
        for listener in self._listeners["released"]:
            listener(query)
        if self.config.release_latency > 0:
            self._pending_release[query.query_id] = self.sim.schedule(
                self.config.release_latency,
                lambda: self._begin_execution(query),
                "qp:release",
            )
        else:
            self.engine.execute(query)

    def _begin_execution(self, query: Query) -> None:
        self._pending_release.pop(query.query_id, None)
        self.engine.execute(query)

    def cancel(self, query: Query) -> bool:
        """Cancel a queued (or not-yet-executing) query — QP's cancel command.

        Succeeds for statements still held in a class queue and for released
        statements whose agent unblock is still in flight (the release
        latency window); once execution begins the request is refused
        (returns False).  A cancelled query never reaches the engine: its
        state becomes CANCELLED, its control-table row closes, and every
        ``cancelled`` subscriber is notified so accounting layers
        (dispatcher, static policy) release what they hold for it.
        """
        if not self._holds(query):
            pending = self._pending_release.pop(query.query_id, None)
            if pending is None or query.state != QueryState.RELEASED:
                return False
            pending.cancel()
        query.state = QueryState.CANCELLED
        query.finish_time = self.sim.now
        self.tables.close(query)
        for listener in self._listeners["cancelled"]:
            listener(query)
        return True

    def reject(self, query: Query) -> None:
        """Refuse a held query outright (QP's max-cost rejection).

        The submitter is notified through the query's completion callback
        with state REJECTED; the statement never reaches the engine.
        """
        if not self._holds(query):
            raise PatrollerError(
                "reject of query {} which is not held".format(query.query_id)
            )
        query.state = QueryState.REJECTED
        query.finish_time = self.sim.now
        self.tables.close(query)
        for listener in self._listeners["rejected"]:
            listener(query)
        if query.on_complete is not None:
            query.on_complete(query)

    def _holds(self, query: Query) -> bool:
        """Whether ``query`` is held: its open row is in state ``QUEUED``."""
        return (
            query.state is QueryState.QUEUED
            and self.tables.find(query.query_id) is query
        )

    def _on_completion(self, query: Query) -> None:
        """The engine's completion hook: close the row, then ``completed``."""
        # Only queries that went through interception have table rows.
        if query.intercept_time is not None:
            self.tables.close(query)
        for listener in self._listeners["completed"]:
            listener(query)
