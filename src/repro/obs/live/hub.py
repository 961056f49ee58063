"""The push-based telemetry hub: a thread-safe, bounded event bus.

One :class:`TelemetryHub` sits between the (single-threaded) control
loop and any number of live consumers — the embedded SSE dashboard, a
test subscribed through ``urllib``, a raw socket.  Publishers call
:meth:`TelemetryHub.publish` with one of the versioned protocol's event
types; the hub stamps a monotonic sequence number, folds the event into
its *snapshot* (the current state a late joiner needs), and fans the
event out to every subscriber.

The cardinal rule is that **publishing never blocks and never fails the
run**: each subscriber owns a bounded queue, and when a slow consumer
falls behind the hub evicts that subscriber's oldest queued event and
increments its explicit ``dropped`` counter — the control loop's
timeline is observation-only and must be bit-identical with or without
the hub attached.

Protocol (version :data:`PROTOCOL_VERSION`)
-------------------------------------------

Every event is a JSON object::

    {"v": 1, "seq": 17, "type": "interval", "time": 120.0,
     "shard": 0, "data": {...}}

``seq`` increases by exactly one per published event (a consumer can
detect its own gaps); ``shard`` is the shard index for per-shard events
and ``null`` for fleet-level / unsharded events.  Event types:

``snapshot``
    Run metadata published once at run start (controller, backend,
    classes and their goals, schedule shape, shard layout).
``interval``
    One control-interval record: the full
    :class:`~repro.metrics.telemetry.ControlIntervalRecord` dict plus
    collector-derived per-class progress (completions, attainment).
``spans``
    The slowest recently-finished query spans (only when the run is
    traced).
``shard_rebalance``
    A cost-limit re-split across the fleet: per-shard demands and the
    new per-shard limits (sum exactly to the global limit).
``run_end``
    Final per-class attainment and completions; the fleet-level
    ``run_end`` additionally carries the merged sharded report.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.errors import MetricsError
from repro.obs.registry import MetricsRegistry, render_prometheus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.telemetry import ControlIntervalRecord

#: Version stamped into every event and snapshot.
PROTOCOL_VERSION = 1

#: The event types the hub accepts.
EVENT_TYPES = ("snapshot", "interval", "spans", "shard_rebalance", "run_end")

#: Default per-subscriber queue bound.
DEFAULT_MAX_QUEUE = 256

#: How many recent rebalance events the snapshot retains.
SNAPSHOT_REBALANCES = 16


def _shard_key(shard: Optional[int]) -> str:
    """JSON-object key for a shard index (``"fleet"`` for fleet-level)."""
    return "fleet" if shard is None else str(shard)


def _wire_data(data: Dict, record: Optional["ControlIntervalRecord"]) -> Dict:
    """An event's ``data`` on the wire: as published, or (an ``interval``
    event with a record) its progress figures around the record, both
    rendered now."""
    if record is None:
        return data
    return {
        "interval_index": record.interval_index,
        "trigger": record.trigger,
        "cost_limits": record.plan.as_dict(),
        "classes": dict(data["classes"]),
        "total_completions": data["total_completions"],
        "record": record.to_dict(),
    }


class LiveEvent:
    """One published protocol event (immutable once created).

    An ``interval`` event published with a ``record`` keeps in ``data`` only
    what moves with time (class progress — a read-only mapping of each
    class's progress dict — and total completions) and holds the planner's
    frozen record by reference: in-process consumers read :attr:`record`;
    :meth:`to_dict` renders both, afresh on every call.
    """

    __slots__ = ("seq", "type", "time", "shard", "data", "record")

    def __init__(
        self,
        seq: int,
        type: str,
        data: Dict,
        time: Optional[float] = None,
        shard: Optional[int] = None,
        record: Optional["ControlIntervalRecord"] = None,
    ) -> None:
        self.seq = seq
        self.type = type
        self.time = time
        self.shard = shard
        self.data = data
        self.record = record

    def to_dict(self) -> Dict:
        """The JSON-ready wire form."""
        return {
            "v": PROTOCOL_VERSION,
            "seq": self.seq,
            "type": self.type,
            "time": self.time,
            "shard": self.shard,
            "data": _wire_data(self.data, self.record),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LiveEvent(seq={}, type={!r}, shard={!r})".format(
            self.seq, self.type, self.shard
        )


class Subscription:
    """One consumer's bounded event queue.

    Created by :meth:`TelemetryHub.subscribe`; events arrive in publish
    order.  When the queue is full the *oldest* queued event is evicted
    (fresh state beats stale state on a dashboard) and :attr:`dropped`
    is incremented — the consumer can both detect and report the gap via
    the sequence numbers.
    """

    def __init__(self, hub: "TelemetryHub", max_queue: int) -> None:
        if not isinstance(max_queue, int) or isinstance(max_queue, bool) or max_queue < 1:
            raise MetricsError(
                "max_queue must be a positive integer, got {!r}".format(max_queue)
            )
        self._hub = hub
        self.max_queue = max_queue
        self._queue: Deque[LiveEvent] = deque()
        self._cond = threading.Condition()
        #: Events evicted because this consumer fell behind.
        self.dropped = 0
        self._closed = False

    # Called by the hub, never blocks.
    def _offer(self, event: LiveEvent) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._queue) >= self.max_queue:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(event)
            self._cond.notify_all()

    @property
    def queued(self) -> int:
        """Events currently waiting to be consumed."""
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def pop(self, timeout: Optional[float] = None) -> Optional[LiveEvent]:
        """Next event, blocking up to ``timeout`` seconds (None = forever).

        Returns ``None`` on timeout or when the subscription is closed.
        """
        with self._cond:
            if not self._queue and not self._closed:
                self._cond.wait(timeout)
            if self._queue:
                return self._queue.popleft()
            return None

    def drain(self) -> List[LiveEvent]:
        """Every queued event, without blocking."""
        with self._cond:
            events = list(self._queue)
            self._queue.clear()
            return events

    def close(self) -> None:
        """Detach from the hub; pending :meth:`pop` calls wake with None."""
        self._hub.unsubscribe(self)
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class TelemetryHub:
    """The event bus: publish, subscribe, snapshot, render metrics.

    All methods are thread-safe.  The hub also acts as the registry
    directory for the ``/metrics`` endpoint: each deployment's
    :class:`~repro.obs.registry.MetricsRegistry` is registered under its
    shard index and :meth:`prometheus` renders the fleet as one
    well-formed exposition (per-shard samples discriminated by a
    ``shard`` label).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._subscribers: List[Subscription] = []
        self._registries: List[Tuple[Optional[int], MetricsRegistry]] = []
        #: Each shard's latest ``interval`` event: the snapshot's ``shards``,
        #: whose place in the key order ``_state`` keeps.
        self._intervals: Dict[str, LiveEvent] = {}
        self._state: Dict = {
            "run": None,
            "shards": None,
            "rebalances": [],
            "spans": {},
            "run_end": {},
        }

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        type: str,
        data: Dict,
        time: Optional[float] = None,
        shard: Optional[int] = None,
        record: Optional["ControlIntervalRecord"] = None,
    ) -> LiveEvent:
        """Publish one event; stamps the next sequence number.

        Never blocks: slow subscribers lose their oldest queued event
        instead.  Returns the stamped event.  ``record`` is the interval
        publisher's alone: the record its event carries (:class:`LiveEvent`).
        """
        if type not in EVENT_TYPES:
            raise MetricsError(
                "unknown live event type {!r}; expected one of {}".format(
                    type, EVENT_TYPES
                )
            )
        with self._lock:
            self._seq += 1
            event = LiveEvent(self._seq, type, data, time, shard, record)
            self._fold_into_state(event)
            subscribers = list(self._subscribers)
        for subscription in subscribers:
            subscription._offer(event)
        return event

    def _fold_into_state(self, event: LiveEvent) -> None:
        """Update the late-joiner snapshot under the hub lock."""
        key = _shard_key(event.shard)
        if event.type == "snapshot":
            self._state["run"] = event.data
        elif event.type == "interval":
            self._intervals[key] = event
        elif event.type == "spans":
            self._state["spans"][key] = event.data
        elif event.type == "shard_rebalance":
            rebalances = self._state["rebalances"]
            rebalances.append({"time": event.time, "seq": event.seq, "data": event.data})
            del rebalances[:-SNAPSHOT_REBALANCES]
        elif event.type == "run_end":
            self._state["run_end"][key] = event.data

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, max_queue: int = DEFAULT_MAX_QUEUE) -> Subscription:
        """Attach a consumer with a bounded queue of ``max_queue`` events."""
        subscription = Subscription(self, max_queue)
        with self._lock:
            self._subscribers.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a consumer (idempotent)."""
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass

    @property
    def subscriber_count(self) -> int:
        """Currently attached consumers."""
        with self._lock:
            return len(self._subscribers)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        """The last sequence number issued (0 before any publish)."""
        with self._lock:
            return self._seq

    def snapshot(self) -> Dict:
        """The versioned current state for a late joiner (a deep copy).

        Mirrors what a subscriber that had been attached from the start
        would know: the run metadata, each shard's latest interval, the
        recent rebalances, the latest spans, and any run-end payloads (an
        interval's record rendered here, not copied from a kept tree).
        """
        with self._lock:
            state = copy.deepcopy(self._state)
            state["shards"] = {
                key: {
                    "time": e.time,
                    "seq": e.seq,
                    "data": _wire_data(copy.deepcopy(e.data), e.record),
                }
                for key, e in self._intervals.items()
            }
            state["v"] = PROTOCOL_VERSION
            state["seq"] = self._seq
            state["subscribers"] = [
                {"queued": s.queued, "dropped": s.dropped, "max_queue": s.max_queue}
                for s in self._subscribers
            ]
            return state

    # ------------------------------------------------------------------
    # Metrics directory
    # ------------------------------------------------------------------
    def register_registry(
        self, registry: MetricsRegistry, shard: Optional[int] = None
    ) -> None:
        """Expose a deployment's instrument registry through ``/metrics``."""
        with self._lock:
            self._registries.append((shard, registry))

    def prometheus(self) -> str:
        """The whole fleet's instruments as one Prometheus exposition."""
        with self._lock:
            registries = list(self._registries)
        sources = [
            (None if shard is None else {"shard": str(shard)}, registry)
            for shard, registry in registries
        ]
        return render_prometheus(sources)
