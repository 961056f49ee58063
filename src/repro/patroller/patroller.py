"""The Query Patroller interceptor.

Responsibilities, mirroring DB2 QP as the paper uses it (Section 2):

* **Interception** — queries of *enabled* classes are intercepted: after an
  interception latency the statement opens a row in the control tables,
  extra CPU overhead is charged to it, and the submitting agent blocks.  A
  held statement is an open row in state ``QUEUED``; its row closes when it
  is cancelled or completes.
* **Bypass** — queries of classes QP is turned off for (the OLTP class in
  every experiment, Section 3) go straight to the engine with no overhead.
* **Release** — the unblocking API: ``release(query)`` lets a held query
  proceed into the engine after a small release latency.

Whoever performs workload control (the paper's Query Scheduler dispatcher,
or QP's own static policy) registers itself as the *release handler* and is
handed every intercepted query; it then decides when to call ``release``.

:meth:`QueryPatroller.subscribe` is the one place to observe a statement's
lifecycle: the patroller also installs the engine's completion hook and
re-announces each completion as ``completed``.  A subscriber may name the
classes it handles; the patroller then calls it for those classes only.
"""

from __future__ import annotations

from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.dbms.query import CPU, Query, QueryState
from repro.errors import PatrollerError
from repro.patroller.tables import ControlTables
from repro.runtime import ExecutionEngine, TimerHandle, TimerService

#: QP's costs per intercepted statement: seconds before it becomes eligible
#: for release, seconds added when it is released, and CPU seconds burned on
#: the server on its behalf.  They are what make direct OLTP interception
#: impractical (Section 3): they dwarf a sub-second transaction.
INTERCEPTION_LATENCY = 0.20
RELEASE_LATENCY = 0.05
OVERHEAD_CPU_DEMAND = 0.03

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
    "completed",
)

#: One subscription: the callable the patroller calls, the classes it is
#: delivered for (None: every statement), and the listener it was made with
#: (what :meth:`QueryPatroller.wrap_subscriber` looks it up by).
_Subscription = Tuple[LifecycleListener, Optional[FrozenSet[str]], LifecycleListener]


class QueryPatroller:
    """Interception layer between clients and the database engine."""

    def __init__(
        self,
        sim: TimerService,
        engine: ExecutionEngine,
    ) -> None:
        self.sim = sim
        self.engine = engine
        #: Per-instance, so a fault can change one run's release latency.
        self.interception_latency = INTERCEPTION_LATENCY
        self.release_latency = RELEASE_LATENCY
        self.overhead_cpu_demand = OVERHEAD_CPU_DEMAND
        self.tables = ControlTables()
        self._intercepted_classes: Set[str] = set()
        self._release_handler: Optional[ReleaseHandler] = None
        #: Released queries whose engine hand-off is still in flight
        #: (release-latency window); maps query id to the pending event.
        self._pending_release: Dict[int, TimerHandle] = {}
        self._intercepted_count = 0
        self._bypassed_count = 0
        self._subscriptions: Dict[str, List[_Subscription]] = {
            event: [] for event in LIFECYCLE_EVENTS
        }
        #: Per event, class name -> the listeners a statement of that class
        #: reaches, in subscription order: built on the class's first
        #: statement (:meth:`_route`), emptied whenever that event's
        #: subscriptions change.
        self._routes: Dict[str, Dict[str, Tuple[LifecycleListener, ...]]] = {
            event: {} for event in LIFECYCLE_EVENTS
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

    def subscribe(
        self,
        event: str,
        listener: LifecycleListener,
        classes: Optional[Collection[str]] = None,
    ) -> None:
        """Observe one of :data:`LIFECYCLE_EVENTS`; ``listener(query)`` runs
        synchronously at the transition instant, in subscription order.

        ``classes`` names the service classes whose statements the listener
        handles; the patroller calls it for those only.  ``None`` (the
        default) delivers every statement.  Route a subscriber only when its
        class set is fixed when it subscribes and it ignores every other
        class.

        ``submitted`` sees every statement (bypassed ones too — workload
        detection needs the OLTP traffic the control tables never hold);
        ``cancelled`` is where accounting layers (dispatcher, monitor,
        static policy) release what they hold for a statement that will
        never complete; ``completed`` fires once per statement the engine
        finishes, bypassed ones too; the tracer subscribes to all five.
        """
        if isinstance(classes, str):
            raise PatrollerError(
                "subscribe() takes a collection of class names, not the "
                "string {!r}".format(classes)
            )
        routed = None if classes is None else frozenset(classes)
        self._subscribers(event).append((listener, routed, listener))
        self._routes[event].clear()

    def wrap_subscriber(
        self,
        event: str,
        listener: LifecycleListener,
        wrap: Callable[[LifecycleListener], LifecycleListener],
    ) -> None:
        """Put ``wrap(inner)`` in the place of ``listener``'s subscription to
        ``event``, delivered to every statement.

        ``inner`` calls what held that place — ``listener`` itself, or an
        earlier wrapper of it — for the classes its subscription named and
        returns at once for any other, so a wrapper sees every statement,
        also those the wrapped listener is routed away from.  Wrappers
        stack: naming ``listener`` again wraps the wrapper in place.  A
        :class:`~repro.errors.PatrollerError` if ``listener`` does not
        observe ``event``.
        """
        subscriptions = self._subscribers(event)
        for position, (current, classes, subscribed) in enumerate(subscriptions):
            if subscribed == listener:
                break
        else:
            raise PatrollerError(
                "{!r} is not subscribed to the {!r} event".format(listener, event)
            )
        if classes is None:
            inner = current
        else:

            def inner(query: Query) -> None:
                if query.class_name in classes:
                    current(query)

        subscriptions[position] = (wrap(inner), None, subscribed)
        self._routes[event].clear()

    def _route(self, event: str, class_name: str) -> Tuple[LifecycleListener, ...]:
        """The listeners ``event`` reaches for a statement of ``class_name``."""
        routes = self._routes[event]
        listeners = routes.get(class_name)
        if listeners is None:
            listeners = routes[class_name] = tuple(
                listener
                for listener, classes, _ in self._subscriptions[event]
                if classes is None or class_name in classes
            )
        return listeners

    def _subscribers(self, event: str) -> List[_Subscription]:
        subscriptions = self._subscriptions.get(event)
        if subscriptions is None:
            raise PatrollerError(
                "unknown lifecycle event {!r}; expected one of {}".format(
                    event, LIFECYCLE_EVENTS
                )
            )
        return subscriptions

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
        # The two per-statement announcements read the route inline (a hit
        # is one dict read, no call); the rarer transitions call _route.
        try:
            listeners = self._routes["submitted"][query.class_name]
        except KeyError:
            listeners = self._route("submitted", query.class_name)
        for listener in listeners:
            listener(query)
        if query.class_name not in self._intercepted_classes:
            self._bypassed_count += 1
            self.engine.execute(query)
            return
        self._intercepted_count += 1
        self.sim.schedule(
            self.interception_latency,
            lambda: self._intercept(query),
            "qp:intercept",
        )

    def _intercept(self, query: Query) -> None:
        query.intercept_time = self.sim.now
        if self.overhead_cpu_demand > 0:
            # QP's bookkeeping burns server CPU on behalf of the statement.
            query.phases = ((CPU, self.overhead_cpu_demand),) + query.phases
        query.state = QueryState.QUEUED
        self.tables.record(query)
        query.queue_time = self.sim.now
        for listener in self._route("intercepted", query.class_name):
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
        for listener in self._route("released", query.class_name):
            listener(query)
        if self.release_latency > 0:
            self._pending_release[query.query_id] = self.sim.schedule(
                self.release_latency,
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
        state becomes CANCELLED, its control-table row closes, every
        ``cancelled`` subscriber is notified so accounting layers
        (dispatcher, static policy) release what they hold for it, and
        then its submitter's ``on_complete`` ends the wait for it.
        """
        if not self._holds(query):
            pending = self._pending_release.pop(query.query_id, None)
            if pending is None or query.state != QueryState.RELEASED:
                return False
            pending.cancel()
        query.state = QueryState.CANCELLED
        query.finish_time = self.sim.now
        self.tables.close(query)
        for listener in self._route("cancelled", query.class_name):
            listener(query)
        if query.on_complete is not None:
            query.on_complete(query)
        return True

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
        try:
            listeners = self._routes["completed"][query.class_name]
        except KeyError:
            listeners = self._route("completed", query.class_name)
        for listener in listeners:
            listener(query)
