"""Per-period, per-class metric aggregation.

The paper reports everything per 8-minute period: the per-class query
velocity or average response time of Figures 4-6, and the per-class cost
limits of Figure 7.  :class:`MetricsCollector` subscribes to the patroller's
``completed`` event (and optionally to planner decisions) and buckets by
the period in which each query *finished*.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.service_class import ServiceClass
from repro.dbms.query import Query
from repro.errors import MetricsError
from repro.metrics.telemetry import ControlIntervalRecord
from repro.patroller.patroller import QueryPatroller
from repro.sim.stats import Histogram
from repro.workloads.schedule import PeriodSchedule

#: Response-time histogram range for tail-latency queries (seconds).
_RT_HISTOGRAM_RANGE = (0.0, 600.0)
_RT_HISTOGRAM_BINS = 240

#: Completions a cell holds before folding them: enough to spread a fold's fixed
#: cost (one loop, one histogram call) thin; a larger block only keeps more floats.
_FOLD_BLOCK = 64

#: Metric names :meth:`MetricsCollector.metric_series` understands.
METRIC_NAMES = (
    "velocity",
    "response_time",
    "execution_time",
    "wait_time",
    "throughput",
    "response_p95",
    "response_p99",
)


def _folded(slot: str) -> property:
    """Read-only view of one aggregate that folds the pending block first."""
    return property(lambda cell: cell.fold() or getattr(cell, slot))


class PeriodClassMetrics:
    """Aggregates for one (period, class) cell.

    Completions are counted as they land; their timings wait in a block
    that is folded into the aggregates in arrival order — when it holds
    :data:`_FOLD_BLOCK`, when the collector closes the period, and before
    any read — so every statistic equals the completion-by-completion fold.
    It keeps only what the collector reports: each metric's running mean,
    updated as :class:`~repro.sim.stats.WelfordAccumulator` updates its
    mean, and the response-time histogram.
    """

    __slots__ = (
        "completions",
        "_pending",
        "_folded_count",
        "_velocity",
        "_response_time",
        "_execution_time",
        "_wait_time",
        "_response_histogram",
    )

    velocity = _folded("_velocity")
    response_time = _folded("_response_time")
    execution_time = _folded("_execution_time")
    wait_time = _folded("_wait_time")
    response_histogram = _folded("_response_histogram")

    def __init__(self) -> None:
        self.completions = 0
        #: ``response, execution`` of the completions not folded yet, flat.
        self._pending: List[float] = []
        self._folded_count = 0
        self._velocity = 0.0
        self._response_time = 0.0
        self._execution_time = 0.0
        self._wait_time = 0.0
        self._response_histogram = Histogram(
            _RT_HISTOGRAM_RANGE[0], _RT_HISTOGRAM_RANGE[1], bins=_RT_HISTOGRAM_BINS
        )

    def add(self, query: Query) -> None:
        """Count a completed query and queue its timings for the next fold."""
        self.completions += 1
        # The Query properties' float arithmetic, derived once.
        finish, submit = query.finish_time, query.submit_time
        if finish is None or submit is None:
            # Raises the properties' read-before-completion error.
            response, execution = query.response_time, query.execution_time
        else:
            released = query.release_time
            response = finish - submit
            execution = finish - (released if released is not None else submit)
        pending = self._pending
        pending.append(response)
        pending.append(execution)
        if len(pending) >= 2 * _FOLD_BLOCK:
            self.fold()

    def fold(self) -> None:
        """Fold the pending block in one pass (no-op when empty)."""
        pending = self._pending
        if not pending:
            return
        count = self._folded_count
        velocity_mean, response_mean = self._velocity, self._response_time
        execution_mean, wait_mean = self._execution_time, self._wait_time
        values = iter(pending)
        for response, execution in zip(values, values):
            count += 1
            # Query.velocity: min(1.0, e / r), NaN included; 1.0 if r <= 0.
            velocity = 1.0
            if response > 0:
                velocity = execution / response
                if not velocity < 1.0:
                    velocity = 1.0
            velocity_mean += (velocity - velocity_mean) / count
            response_mean += (response - response_mean) / count
            execution_mean += (execution - execution_mean) / count
            wait_mean += (response - execution - wait_mean) / count
        self._folded_count = count
        self._velocity, self._response_time = velocity_mean, response_mean
        self._execution_time, self._wait_time = execution_mean, wait_mean
        self._response_histogram.add_many(pending[0::2])
        del pending[:]

    def response_percentile(self, q: float) -> float:
        """Approximate response-time percentile for this cell."""
        return self.response_histogram.percentile(q)


class MetricsCollector:
    """Buckets completions and plan decisions by schedule period."""

    def __init__(
        self,
        patroller: QueryPatroller,
        schedule: PeriodSchedule,
        classes: List[ServiceClass],
    ) -> None:
        self.schedule = schedule
        self.classes = list(classes)
        self._cells: Dict[Tuple[int, str], PeriodClassMetrics] = {}
        #: (decision time, the plan's read-only limits view) per decision.
        self._plan_points: List[Tuple[float, Mapping[str, float]]] = []
        self._total_completions = 0
        self._class_completions: Dict[str, int] = {c.name: 0 for c in self.classes}
        #: Completed queries per class so far, read-only and live (no copy).
        self.class_completions: Mapping[str, int] = MappingProxyType(
            self._class_completions
        )
        #: The latest period a completion landed in (the only one whose
        #: cells may hold an unfolded block) with its span, and per class the
        #: ``(met, observed)`` goal tally of the periods before it, on demand.
        self._open_period = -1
        self._closed_tally: Dict[ServiceClass, Tuple[int, int]] = {}
        self._leave_open_period(0.0)  # opens period 0
        patroller.subscribe("completed", self.on_completion)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def on_completion(self, query: Query) -> None:
        """The patroller's ``completed`` hook."""
        finish = query.finish_time
        if finish is None:
            return
        if self._open_start <= finish < self._open_end:
            period = self._open_period
        else:
            period = self._leave_open_period(finish)
        key = (period, query.class_name)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = PeriodClassMetrics()
        cell.add(query)
        if period != self._open_period:
            cell.fold()  # a straggler: closed periods hold nothing pending
        self._total_completions += 1
        totals = self._class_completions
        totals[query.class_name] = totals.get(query.class_name, 0) + 1

    def _leave_open_period(self, time: float) -> int:
        """The period of a ``time`` outside the open period's span: a later
        one becomes the open one (what it closes is folded), an earlier one is
        a straggler's (wall-clock backends); either way the tallies are stale."""
        period = self.schedule.period_at(time)
        if period > self._open_period:
            for cell in self._cells.values():
                cell.fold()
            self._open_period = period
            self._open_start, self._open_end = self.schedule.period_span(period)
        self._closed_tally.clear()
        return period

    def on_plan(self, record: ControlIntervalRecord) -> None:
        """Planner decision hook (register via planner.add_plan_listener)."""
        self._plan_points.append((record.time, record.plan.limits))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_completions(self) -> int:
        """Total completed queries observed."""
        return self._total_completions

    def cell(self, period: int, class_name: str) -> Optional[PeriodClassMetrics]:
        """The aggregate for one (period, class), or None if empty."""
        return self._cells.get((period, class_name))

    def metric_series(self, class_name: str, metric: str) -> List[Optional[float]]:
        """Per-period series of a metric for one class.

        ``metric`` is one of ``velocity``, ``response_time``,
        ``execution_time``, ``wait_time`` (period means), ``throughput``
        (completions per second), or ``response_p95`` / ``response_p99``
        (tail latency).  Periods with no completions yield None.  An
        unknown metric raises :class:`~repro.errors.MetricsError` naming
        the valid choices.
        """
        if metric not in METRIC_NAMES:
            raise MetricsError(
                "unknown metric {!r}; expected one of {}".format(
                    metric, ", ".join(METRIC_NAMES)
                )
            )
        series: List[Optional[float]] = []
        for period in range(self.schedule.num_periods):
            cell = self._cells.get((period, class_name))
            if cell is None or cell.completions == 0:
                series.append(None)
                continue
            if metric == "throughput":
                series.append(cell.completions / self.schedule.period_seconds)
            elif metric == "response_p95":
                series.append(cell.response_percentile(95.0))
            elif metric == "response_p99":
                series.append(cell.response_percentile(99.0))
            else:
                series.append(getattr(cell, metric))
        return series

    @staticmethod
    def _goal_metric(service_class: ServiceClass) -> str:
        return "velocity" if service_class.kind == "olap" else "response_time"

    def performance_series(self, service_class: ServiceClass) -> List[Optional[float]]:
        """The class's goal metric per period (velocity or response time)."""
        return self.metric_series(service_class.name, self._goal_metric(service_class))

    def _goal_tally(
        self, service_class: ServiceClass, periods: Iterable[int]
    ) -> Tuple[int, int]:
        """``(periods that met the goal, non-empty periods)`` among ``periods``."""
        metric = self._goal_metric(service_class)
        met = observed = 0
        for period in periods:
            cell = self._cells.get((period, service_class.name))
            if cell is None or cell.completions == 0:
                continue
            observed += 1
            if service_class.goal.satisfied(getattr(cell, metric)):
                met += 1
        return met, observed

    def goal_attainment(self, service_class: ServiceClass) -> float:
        """Fraction of (non-empty) periods in which the class met its goal.

        Periods before the open one can no longer change, so their tally
        is kept per class and only the open period is looked at again — a
        live publisher asks every control interval.
        """
        closed = self._closed_tally.get(service_class)
        if closed is None:
            closed = self._closed_tally[service_class] = self._goal_tally(
                service_class, range(self._open_period)
            )
        met, observed = self._goal_tally(service_class, (self._open_period,))
        met += closed[0]
        observed += closed[1]
        if not observed:
            return 0.0
        return met / observed

    def completions_by_class(self) -> Dict[str, int]:
        """Total completed queries per class (zero for idle classes).

        The weights for cross-run/cross-shard attainment aggregation —
        see :func:`repro.metrics.aggregate.weighted_attainment`.
        """
        return dict(self._class_completions)

    def class_response_histogram(self, class_name: str) -> Optional[Histogram]:
        """One response-time histogram over all periods of a class.

        Merges the per-period cell histograms (without mutating them);
        ``None`` when the class completed nothing.
        """
        from repro.metrics.aggregate import merge_histograms

        return merge_histograms(
            [
                cell.response_histogram
                for (_, name), cell in sorted(self._cells.items())
                if name == class_name
            ]
        )

    def plan_series(self, class_name: str) -> List[Tuple[float, float]]:
        """(time, cost limit) points for one class (Figure 7's raw data)."""
        return [
            (time, limits[class_name])
            for time, limits in self._plan_points
            if class_name in limits
        ]

    def plan_period_means(self, class_name: str) -> List[Optional[float]]:
        """Per-period mean cost limit of a class (Figure 7, period view)."""
        sums = [0.0] * self.schedule.num_periods
        counts = [0] * self.schedule.num_periods
        for time, limits in self._plan_points:
            if class_name not in limits:
                continue
            period = self.schedule.period_at(time)
            sums[period] += limits[class_name]
            counts[period] += 1
        return [
            (sums[i] / counts[i]) if counts[i] else None
            for i in range(self.schedule.num_periods)
        ]
