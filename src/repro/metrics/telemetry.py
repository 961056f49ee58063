"""Controller telemetry: one structured record per control interval.

The Query Scheduler is a closed-loop controller (Monitor -> Planner/Solver
-> Dispatcher), and a controller whose per-interval decisions are invisible
cannot be debugged or trusted — accounting leaks in exactly this loop went
unnoticed until it was traced.  At every control interval the Scheduling
Planner snapshots the whole loop into one :class:`ControlIntervalRecord` —
the only record of that decision; every plan listener receives that object:

* **plan** and **measurements** — the installed plan and each class's
  monitored value, sample count and staleness (how old the freshest
  sample is);
* **predictions** — what the performance models promised last interval
  versus what was realised this interval (the per-class prediction error),
  plus what they promise under the plan just installed;
* **solver** — the chosen allocation, its objective score, and how many
  candidate allocations were evaluated to find it;
* **dispatcher** — per-class queue length, in-flight cost/count, and the
  released / completed / cancelled counters whose balance proves the
  accounting is leak-free.

A :class:`TelemetryStore` is the queryable view over the planner's list of
records and exports it as JSONL (`repro run --output FILE.jsonl` on the
command line).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError
from repro.metrics.export import open_export

if TYPE_CHECKING:  # imported lazily to keep this importable from anywhere
    from repro.core.modeling.protocol import ModelState
    from repro.core.monitor import ClassMeasurement
    from repro.core.plan import SchedulingPlan


Row = TypeVar("Row")


class ClassRows(Mapping[str, Row]):
    """One per-class section of an interval, read-only: every row packed
    into one flat tuple.

    ``index`` maps each class name to its position (class order) and is
    shared by every section built over the same class set; ``row`` builds
    one row from its fields — a ``NamedTuple`` type or a module-level
    function, so the view pickles; ``fields`` holds every row's fields back
    to back, in class order (all of a ``NamedTuple``'s fields, defaulted
    ones too).  ``rows[name]`` builds that class's row on access; a
    ``NamedTuple`` row is the slice itself, made by ``tuple.__new__``
    without its generated constructor.  Like
    :class:`~repro.core.plan.PlanLimits`, it compares equal to a dict of
    the same rows.
    """

    __slots__ = ("_index", "_row", "_fields")

    def __init__(
        self, index: Dict[str, int], row: Callable[..., Row], fields: Tuple
    ) -> None:
        self._index = index
        self._row = row
        self._fields = fields

    def __getitem__(self, class_name: str) -> Row:
        position = self._index[class_name]
        width = len(self._fields) // len(self._index)
        fields = self._fields[position * width : (position + 1) * width]
        row = self._row
        if isinstance(row, type):
            return tuple.__new__(row, fields)
        return row(*fields)

    def __contains__(self, class_name: object) -> bool:
        return class_name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __reduce__(self):
        return ClassRows, (self._index, self._row, self._fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ClassRows({!r})".format(dict(self.items()))


def _finite(value: Optional[float]) -> Optional[float]:
    """A float made JSON-safe: non-finite values become None."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


class PredictionTelemetry(NamedTuple):
    """Model prediction bookkeeping for one class at one interval.

    ``predicted`` is the model's promise under the plan just installed
    (checked against the *next* interval's measurement); ``realized`` is
    this interval's measured value; ``error`` is ``realized`` minus the
    *previous* interval's promise — the one-step prediction error.
    """

    predicted: Optional[float]
    realized: Optional[float]
    error: Optional[float]

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "predicted": _finite(self.predicted),
            "realized": _finite(self.realized),
            "error": _finite(self.error),
        }


@dataclass(frozen=True)
class SolverTelemetry:
    """The solver's decision at one control interval."""

    #: The installed plan's limits (its read-only ``limits`` view).
    allocation: Mapping[str, float]
    objective: Optional[float]
    evaluations: int
    solve_calls: int
    oltp_slope: Optional[float]
    oltp_observations: Optional[int]
    #: The performance model's immutable ``state()`` at this interval,
    #: rendered (``model.describe()``'s dict) only by :meth:`to_dict`;
    #: None for model-free allocators, which render as ``{}``.
    model: Optional["ModelState"] = None

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "allocation": {name: _finite(v) for name, v in self.allocation.items()},
            "objective": _finite(self.objective),
            "evaluations": self.evaluations,
            "solve_calls": self.solve_calls,
            "oltp_slope": _finite(self.oltp_slope),
            "oltp_observations": self.oltp_observations,
            "model": self.model.to_dict() if self.model is not None else {},
        }


class DispatcherClassTelemetry(NamedTuple):
    """Dispatcher accounting for one class at one control interval."""

    queue_length: int
    in_flight_cost: float
    in_flight_count: int
    released_total: int
    completed_total: int
    cancelled_total: int
    released_this_interval: int
    enqueued_total: int = 0
    queue_cancelled_total: int = 0

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "queue_length": self.queue_length,
            "in_flight_cost": _finite(self.in_flight_cost),
            "in_flight_count": self.in_flight_count,
            "released_total": self.released_total,
            "completed_total": self.completed_total,
            "cancelled_total": self.cancelled_total,
            "released_this_interval": self.released_this_interval,
            "enqueued_total": self.enqueued_total,
            "queue_cancelled_total": self.queue_cancelled_total,
        }


@dataclass(frozen=True)
class ControlIntervalRecord:
    """Everything the control loop saw and decided in one interval.

    Built once by :meth:`SchedulingPlanner.run_interval
    <repro.core.planner.SchedulingPlanner.run_interval>` — after the plan
    is installed and the prediction pass has run, before any plan listener
    — and handed as-is to every listener.  It keeps values, not copies:
    the plan (whose ``limits`` view is ``solver.allocation``) and the
    model's immutable state are rendered only by :meth:`to_dict`.  The
    planner builds each per-class section (``measurements``,
    ``predictions``, ``dispatcher``) as a :class:`ClassRows` view over one
    flat tuple; a record built by hand may hold plain dicts instead.

    ``violations`` holds the invariant violations the validation harness
    observed at this interval boundary (as JSON-ready dicts; empty when the
    harness is off or the loop is consistent).  The harness appends into
    the list of the record it is handed, which is why the field is a
    mutable list on an otherwise frozen record.

    ``overhead`` is the controller's own wall-clock cost for this decision
    (``monitor_s``/``solver_s``/``dispatcher_s``/``total_s`` from
    ``time.perf_counter``) — real seconds spent computing, never simulated
    time.
    """

    time: float
    interval_index: int  # counts decisions from zero
    trigger: str  # "scheduled" or "early"
    plan: "SchedulingPlan"
    measurements: Mapping[str, "ClassMeasurement"]
    predictions: Mapping[str, PredictionTelemetry]
    solver: SolverTelemetry
    dispatcher: Mapping[str, DispatcherClassTelemetry]
    violations: List[Dict] = field(default_factory=list)
    overhead: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """Flatten into a JSON-serialisable dict (one JSONL line).

        The plan is exported as ``solver.allocation``; a measurement's
        ``staleness`` is how many seconds before this decision it was taken.
        """
        return {
            "time": self.time,
            "interval_index": self.interval_index,
            "trigger": self.trigger,
            "measurements": {
                name: {
                    "metric": m.metric,
                    "value": _finite(m.value),
                    "sample_count": m.sample_count,
                    "staleness": _finite(self.time - m.measured_at),
                }
                for name, m in self.measurements.items()
            },
            "predictions": {n: p.to_dict() for n, p in self.predictions.items()},
            "solver": self.solver.to_dict(),
            "dispatcher": {n: d.to_dict() for n, d in self.dispatcher.items()},
            "violations": [dict(v) for v in self.violations],
            "overhead": {k: _finite(v) for k, v in self.overhead.items()},
        }


@dataclass
class PredictionErrorSummary:
    """Across-interval prediction-error aggregate for one class."""

    class_name: str
    count: int = 0
    _abs_sum: float = field(default=0.0, repr=False)
    _sum: float = field(default=0.0, repr=False)

    def add(self, error: float) -> None:
        """Fold in one interval's prediction error."""
        self.count += 1
        self._abs_sum += abs(error)
        self._sum += error

    @property
    def mean_abs_error(self) -> float:
        """Mean absolute one-step prediction error."""
        return self._abs_sum / self.count if self.count else 0.0

    @property
    def mean_error(self) -> float:
        """Mean signed error (bias: positive = model under-predicted)."""
        return self._sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        """JSON-ready summary."""
        return {
            "count": self.count,
            "mean_abs_error": _finite(self.mean_abs_error),
            "mean_error": _finite(self.mean_error),
        }


class TelemetryStore:
    """Queryable view over a list of control-interval records.

    The list is used as given, not copied: a live run's store is backed by
    ``planner.history`` itself and grows as the planner appends to it.
    """

    def __init__(self, records: Optional[List[ControlIntervalRecord]] = None) -> None:
        self._records: List[ControlIntervalRecord] = (
            records if records is not None else []
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ControlIntervalRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[ControlIntervalRecord]:
        """All records in interval order (a copy)."""
        return list(self._records)

    def between(self, start: float, end: float) -> List[ControlIntervalRecord]:
        """Records with ``start <= time <= end``."""
        return [r for r in self._records if start <= r.time <= end]

    def allocation_series(self, class_name: str) -> List[float]:
        """The class's cost limit at every interval."""
        return [
            r.solver.allocation[class_name]
            for r in self._records
            if class_name in r.solver.allocation
        ]

    def prediction_errors(self, class_name: str) -> List[float]:
        """The class's realised one-step prediction errors, in order."""
        return [
            r.predictions[class_name].error
            for r in self._records
            if class_name in r.predictions
            and r.predictions[class_name].error is not None
        ]

    def prediction_error_summary(self) -> Dict[str, PredictionErrorSummary]:
        """Per-class aggregate of one-step prediction errors."""
        summaries: Dict[str, PredictionErrorSummary] = {}
        for record in self._records:
            for name, prediction in record.predictions.items():
                if prediction.error is None:
                    continue
                summary = summaries.setdefault(name, PredictionErrorSummary(name))
                summary.add(prediction.error)
        return summaries

    def violations(self) -> List[Dict]:
        """All invariant-violation dicts across records, in interval order."""
        return [v for record in self._records for v in record.violations]

    def overhead_summary(self) -> Dict[str, Dict[str, float]]:
        """Mean/max controller wall-time per overhead section across records.

        Keys are the profiled section names (``monitor_s``, ``solver_s``,
        ``dispatcher_s``, ``total_s``); empty when no record carries
        overhead data (e.g. replayed from a pre-overhead JSONL export).
        """
        from repro.obs.profiling import summarize_overhead

        return summarize_overhead([r.overhead for r in self._records])

    def dispatcher_balance(self) -> Dict[str, Dict[str, int]]:
        """Final released/completed/cancelled/in-flight counters per class.

        In a leak-free dispatcher ``released == completed + cancelled +
        in_flight_count`` for every class — the invariant the accounting
        regression tests pin.
        """
        if not self._records:
            return {}
        return {
            name: {
                "released": d.released_total,
                "completed": d.completed_total,
                "cancelled": d.cancelled_total,
                "in_flight": d.in_flight_count,
                "queue_cancelled": d.queue_cancelled_total,
            }
            for name, d in self._records[-1].dispatcher.items()
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """All records as JSON Lines text (one record per line)."""
        return "".join(json.dumps(r.to_dict()) + "\n" for r in self._records)

    def save_jsonl(self, path: str, overwrite: bool = False) -> None:
        """Stream :meth:`to_jsonl`'s bytes to ``path``, one record at a time.

        Refuses to clobber an existing file unless ``overwrite=True``
        (raising :class:`~repro.errors.ExportError`): several runs — or
        several shards of one run — exporting into the same directory
        must never silently truncate each other's records.  Atomic:
        :func:`repro.metrics.export.open_export`.
        """
        with open_export(path, overwrite) as handle:
            for record in self._records:
                handle.write(json.dumps(record.to_dict()) + "\n")

    @staticmethod
    def load_jsonl(path: str) -> List[Dict]:
        """Read back a JSONL export as plain dicts.

        A line that is not a JSON object (a truncated or corrupted export)
        raises :class:`~repro.errors.ConfigurationError` naming the file
        and the 1-based line number.
        """
        records: List[Dict] = []
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ConfigurationError(
                        "telemetry file {!r}, line {}: not valid JSON ({})".format(
                            path, number, exc
                        )
                    )
                if not isinstance(record, dict):
                    raise ConfigurationError(
                        "telemetry file {!r}, line {}: not a JSON object (got {})".format(
                            path, number, type(record).__name__
                        )
                    )
                records.append(record)
        return records
