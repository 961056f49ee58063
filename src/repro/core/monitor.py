"""The Monitor.

"The Monitor collects the information about the query from the DB2 QP
control tables, including the query identification, query cost and query
execution information.  The Monitor passes the query information to the
Classifier and to the Scheduling Planner" (Section 2).

Two measurement paths, one per metric (Section 3.1):

* **OLAP query velocity** — computed from queries of the class that
  completed within a sliding window, blended with the *instantaneous*
  velocity of queries still in the system (time-executing over
  time-in-system), which are the open rows of QP's control tables.  The
  blend matters because scaled-down OLAP queries complete only a few times
  per control interval: without the in-flight signal, a class whose queue
  is stalled would keep reporting its last happy measurement forever.
* **OLTP average response time** — the paper turns QP off for the OLTP
  class, so the Monitor samples the DB2 snapshot monitor at a fixed interval
  and averages the most recent response time of every OLTP client
  (Section 3.3).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.config import MonitorConfig
from repro.core.service_class import ServiceClass
from repro.dbms.query import Query, QueryState
from repro.errors import SchedulingError
from repro.patroller.tables import ControlTables
from repro.runtime import Clock, ExecutionEngine, TimerService
from repro.sim.stats import SlidingWindow, sequential_sum

#: Seconds of OLAP completions behind each velocity estimate.
VELOCITY_WINDOW = 120.0
#: How long a class's last measurement stays usable as a fallback once its
#: sample windows run dry (see :func:`fresh_or_retained`).
MAX_MEASUREMENT_AGE = 300.0


class ClassMeasurement(NamedTuple):
    """One per-class performance measurement handed to the planner."""

    class_name: str
    metric: str  # "velocity" or "response_time"
    value: float
    sample_count: int
    measured_at: float


def fresh_or_retained(
    retained: Dict[str, ClassMeasurement],
    class_name: str,
    fresh: Optional[ClassMeasurement],
    now: float,
) -> Optional[ClassMeasurement]:
    """This interval's measurement, or the class's last one while it is young.

    When a class's sample windows run dry its last measurement stands in,
    but only while it is younger than :data:`MAX_MEASUREMENT_AGE` — an idle
    class must not keep feeding the solver an arbitrarily old value forever;
    past that age it is dropped and the planner treats the class as
    unmeasured (at-goal).  ``retained`` is the
    caller's per-class store, updated in place.
    """
    if fresh is not None:
        retained[class_name] = fresh
        return fresh
    kept = retained.get(class_name)
    if kept is not None and now - kept.measured_at > MAX_MEASUREMENT_AGE:
        del retained[class_name]
        return None
    return kept


class Monitor:
    """Collects per-class performance measurements for the planner."""

    #: Queries younger than this (seconds in system) are excluded from the
    #: in-flight velocity blend; their ratio is numerically meaningless.
    MIN_IN_FLIGHT_AGE = 5.0

    def __init__(
        self,
        sim: TimerService,
        engine: ExecutionEngine,
        tables: ControlTables,
        classes: List[ServiceClass],
        config: MonitorConfig,
        clock: Optional[Clock] = None,
    ) -> None:
        config.validate()
        self.sim = sim
        #: Every time *read* (staleness bounds, window eviction, measurement
        #: stamps) goes through this clock; ``sim`` is used only to
        #: schedule.  Injectable so backends can separate the two.
        self.clock: Clock = clock if clock is not None else sim
        self.engine = engine
        #: QP's control tables: the intercepted statements still open.
        self.tables = tables
        self.config = config
        self._classes: Dict[str, ServiceClass] = {c.name: c for c in classes}
        # Completed-velocity samples per OLAP class: (finish_time, velocity).
        self._velocity_samples: Dict[str, SlidingWindow] = {
            c.name: SlidingWindow(capacity=512) for c in classes if c.kind == "olap"
        }
        # Snapshot-sampled average response time per OLTP class.
        self._rt_samples: Dict[str, SlidingWindow] = {
            c.name: SlidingWindow(capacity=256) for c in classes if c.kind == "oltp"
        }
        self._last_measurement: Dict[str, ClassMeasurement] = {}
        self._snapshots_taken = 0
        self._started = False

    def start(self) -> None:
        """Begin periodic OLTP snapshot sampling."""
        if self._started:
            raise SchedulingError("monitor started twice")
        self._started = True
        if self._rt_samples:
            self.sim.schedule(
                self.config.snapshot_interval,
                self._take_snapshot,
                label="monitor:snapshot",
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def snapshots_taken(self) -> int:
        """Number of snapshot-sampling rounds performed."""
        return self._snapshots_taken

    @property
    def open_queries(self) -> int:
        """Intercepted queries not yet ended (the tables' open rows)."""
        return len(self.tables.open())

    def open_snapshot(self) -> List[Query]:
        """The intercepted-and-unfinished queries (a copy of the open rows)."""
        return list(self.tables.open())

    @property
    def velocity_classes(self) -> Tuple[str, ...]:
        """The classes whose completions :meth:`on_completed` samples."""
        return tuple(self._velocity_samples)

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish the Monitor's live state into an instrument registry."""
        registry.gauge(
            "monitor_open_queries",
            description="Intercepted queries not yet completed",
            callback=lambda: self.open_queries,
        )
        registry.counter(
            "monitor_snapshots_total",
            description="OLTP snapshot-sampling rounds performed",
            callback=lambda: self._snapshots_taken,
        )

    def retained_measurement(self, class_name: str) -> Optional[ClassMeasurement]:
        """The class's retained last measurement, without re-measuring.

        Unlike :meth:`measure` this performs no window eviction, no
        in-flight blending, and no fallback bookkeeping — it is a pure read
        used by the validation harness and diagnostics.
        """
        if class_name not in self._classes:
            raise SchedulingError("monitor knows no class {!r}".format(class_name))
        return self._last_measurement.get(class_name)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_completed(self, query: Query) -> None:
        """Patroller ``completed`` hook: sample the query's velocity."""
        window = self._velocity_samples.get(query.class_name)
        if window is not None and query.kind == "olap":
            window.add(query.finish_time, query.velocity)

    def _take_snapshot(self) -> None:
        self._snapshots_taken += 1
        now = self.clock.now
        # Ignore connections idle for several sampling rounds: their "last
        # statement" predates the current workload intensity.
        staleness_cutoff = now - 3.0 * self.config.snapshot_interval
        for class_name in self._rt_samples:
            average = self.engine.snapshot_monitor.average_response_time(
                class_name=class_name, since=staleness_cutoff
            )
            if average is not None:
                self._rt_samples[class_name].add(now, average)
        self.sim.schedule(
            self.config.snapshot_interval,
            self._take_snapshot,
            label="monitor:snapshot",
        )

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def measure(self, class_name: str) -> Optional[ClassMeasurement]:
        """Current measurement for a class (None if nothing observed yet, or
        nothing recent enough — see :func:`fresh_or_retained`)."""
        service_class = self._classes.get(class_name)
        if service_class is None:
            raise SchedulingError("monitor knows no class {!r}".format(class_name))
        if service_class.kind == "olap":
            measurement = self._measure_velocity(service_class)
        else:
            measurement = self._measure_response_time(service_class)
        return fresh_or_retained(
            self._last_measurement,
            class_name,
            measurement,
            self.clock.now,
        )

    def measure_all(self) -> Dict[str, ClassMeasurement]:
        """Measurements for every class that has one."""
        results = {}
        for name in self._classes:
            measurement = self.measure(name)
            if measurement is not None:
                results[name] = measurement
        return results

    def _measure_velocity(self, service_class: ServiceClass) -> Optional[ClassMeasurement]:
        now = self.clock.now
        window = self._velocity_samples[service_class.name]
        window.evict_older_than(now - VELOCITY_WINDOW)
        values = window.values()
        # Blend in queries currently in the system (released or queued):
        # their velocity-so-far is the freshest signal of queueing pressure.
        for query in self.tables.open():
            if query.class_name != service_class.name:
                continue
            age = now - query.submit_time
            if age < self.MIN_IN_FLIGHT_AGE:
                continue
            if query.release_time is not None and query.state in (
                QueryState.RELEASED,
                QueryState.EXECUTING,
            ):
                executing = now - query.release_time
            else:
                executing = 0.0
            values.append(min(1.0, executing / age))
        if not values:
            return None
        # tuple.__new__: ClassMeasurement's fields, without its constructor frame.
        return tuple.__new__(
            ClassMeasurement,
            (
                service_class.name,
                "velocity",
                sequential_sum(values) / len(values),
                len(values),
                now,
            ),
        )

    def _measure_response_time(
        self, service_class: ServiceClass
    ) -> Optional[ClassMeasurement]:
        now = self.clock.now
        window = self._rt_samples[service_class.name]
        # Average the snapshot samples of (roughly) one control interval.
        window.evict_older_than(now - self.config.response_time_window)
        if len(window) == 0:
            return None
        return tuple.__new__(
            ClassMeasurement,
            (service_class.name, "response_time", window.mean, len(window), now),
        )
