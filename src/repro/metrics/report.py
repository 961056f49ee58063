"""Report sections: one :class:`Table` each.

Every table the CLI prints is built once, by one of the section functions
below (or by the single builder that ``replication``, ``sensitivity``,
``model_ablation`` and ``shard.report`` keep for their own data), and
rendered by ``Table.text()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence

from repro.core.service_class import ServiceClass
from repro.metrics.collector import MetricsCollector

if TYPE_CHECKING:
    from repro.metrics.telemetry import PredictionErrorSummary


class Column(NamedTuple):
    """One table column: its header and cell format.

    ``fmt`` is a ``str.format`` template applied to each cell's value; a
    tuple value fills several fields (``"{:.3f} {:>4}"`` over
    ``(0.41, "ok")``).
    """

    header: str
    fmt: str = "{}"


@dataclass
class Table:
    """One report section: a title, columns, and rows of raw values.

    ``None`` cells render as ``-``; a table without rows renders
    ``empty`` in place of the grid.
    """

    columns: Sequence[Column]
    rows: Sequence[Sequence[object]]
    title: str = ""
    empty: str = "(none)"

    def cells(self) -> List[List[str]]:
        """Each row's cell strings, exactly as :meth:`text` shows them."""
        return [
            [
                "-" if value is None
                else column.fmt.format(*value) if isinstance(value, tuple)
                else column.fmt.format(value)
                for column, value in zip(self.columns, row)
            ]
            for row in self.rows
        ]

    def text(self) -> str:
        """Aligned plain text: title, header, rule, one line per row.

        A column whose values are all strings is left-aligned, any other
        right-aligned.
        """
        cells = self.cells()
        if not cells:
            return ": ".join(filter(None, (self.title, self.empty)))
        grid = [[column.header for column in self.columns]] + cells
        widths = [max(map(len, column)) for column in zip(*grid)]
        aligns = [
            "<" if all(isinstance(value, str) for value in values) else ">"
            for values in zip(*self.rows)
        ]
        lines = [
            " | ".join(map("{:{}{}}".format, row, aligns, widths)).rstrip()
            for row in grid
        ]
        lines.insert(1, "-" * (sum(widths) + 3 * (len(widths) - 1)))
        return "\n".join(([self.title] if self.title else []) + lines)


def period_table(
    collector: MetricsCollector,
    classes: Sequence[ServiceClass],
    title: str = "Per-period goal metrics",
) -> Table:
    """Per-period goal metrics: one row per period, one column per class."""
    columns = [Column("period")]
    series = []
    for service_class in classes:
        metric = "vel" if service_class.kind == "olap" else "rt(s)"
        columns.append(
            Column("{} {}".format(service_class.name, metric), "{:.3f} {:>4}")
        )
        satisfied = service_class.goal.satisfied
        series.append([
            None if value is None else (value, "ok" if satisfied(value) else "MISS")
            for value in collector.performance_series(service_class)
        ])
    rows = [[index + 1, *cells] for index, cells in enumerate(zip(*series))]
    return Table(columns, rows, title)


def attainment_table(
    collector: MetricsCollector,
    classes: Sequence[ServiceClass],
    title: str = "Attainment",
) -> Table:
    """Per-class goal, mean goal metric and share of periods meeting the goal."""
    rows = []
    for service_class in classes:
        seen = [v for v in collector.performance_series(service_class) if v is not None]
        rows.append([
            service_class.name,
            service_class.goal.target,
            sum(seen) / len(seen) if seen else None,
            collector.goal_attainment(service_class),
        ])
    columns = [Column("class"), Column("goal"), Column("mean", "{:.3f}"),
               Column("attainment", "{:.0%}")]
    return Table(columns, rows, title)


def series_table(
    series: Dict[str, Sequence[Optional[float]]],
    x_label: str = "period",
    title: str = "",
    digits: int = 3,
) -> Table:
    """Generic multi-series table: one row per index, one column per series."""
    fmt = "{{:.{}f}}".format(digits)
    columns = [Column(x_label)] + [Column(name, fmt) for name in series]
    length = max((len(values) for values in series.values()), default=0)
    rows = [
        [index + 1]
        + [values[index] if index < len(values) else None for values in series.values()]
        for index in range(length)
    ]
    return Table(columns, rows, title)


def plan_table(
    collector: MetricsCollector,
    class_names: Sequence[str],
    title: str = "Class cost limits (period means, timerons)",
) -> Table:
    """Per-period mean class cost limits (the Figure 7 view)."""
    means = {name: collector.plan_period_means(name) for name in class_names}
    return series_table(means, title=title, digits=0)


def prediction_error_table(summaries: Dict[str, "PredictionErrorSummary"]) -> Table:
    """Per-class one-step prediction error from controller telemetry.

    ``mean error`` is signed (positive = the model under-predicted the
    realised value); ``mean abs error`` is the magnitude that matters for
    control quality.
    """
    columns = [Column("class"), Column("intervals"),
               Column("mean abs error", "{:.4f}"), Column("mean error", "{:.4f}")]
    rows = [
        [name, summary.count, summary.mean_abs_error, summary.mean_error]
        for name, summary in sorted(summaries.items())
    ]
    title = "One-step prediction error per class"
    return Table(columns, rows, title, empty="(no prediction telemetry)")


def dispatcher_balance_table(balance: Dict[str, Dict[str, int]]) -> Table:
    """End-of-run dispatcher accounting per class."""
    keys = ("released", "completed", "cancelled", "in_flight", "queue_cancelled")
    rows = [
        [name] + [counts[key] for key in keys] for name, counts in sorted(balance.items())
    ]
    title = "Dispatcher balance (released = completed + cancelled + in-flight)"
    return Table([Column("class")] + [Column(key) for key in keys], rows, title)


def overhead_table(summary: Dict[str, Dict[str, float]]) -> Table:
    """The controller's own wall-clock cost per control interval."""
    columns = [Column("section"), Column("mean (s)", "{:.6f}"),
               Column("max (s)", "{:.6f}"), Column("intervals")]
    rows = [
        [key, stats["mean_s"], stats["max_s"], stats["count"]]
        for key, stats in sorted(summary.items())
    ]
    title = "Controller overhead (wall-clock per control interval)"
    return Table(columns, rows, title, empty="no overhead data recorded")


def telemetry_tables(store) -> List[Table]:
    """What a ``TelemetryStore`` says about the control loop itself."""
    return [
        prediction_error_table(store.prediction_error_summary()),
        dispatcher_balance_table(store.dispatcher_balance()),
        overhead_table(store.overhead_summary()),
    ]


def span_tables(spans, top: int = 5) -> List[Table]:
    """Per-class phase durations and the ``top`` slowest queue waits."""
    from repro.obs.spans import PHASES, phase_breakdown, slowest_spans

    breakdown = phase_breakdown(spans)
    rows = []
    for name in sorted(breakdown):
        for phase in PHASES:
            stats = breakdown[name].get(phase)
            if stats is not None:
                rows.append([name, phase, stats.count, stats.mean,
                             stats.percentile(50.0), stats.percentile(95.0), stats.max])
    seconds = [Column(name, "{:.3f}") for name in ("mean", "p50", "p95", "max")]
    phases = Table(
        [Column("class"), Column("phase"), Column("count")] + seconds,
        rows,
        "Per-class phase breakdown (sim seconds)",
    )
    waits = Table(
        [Column("query"), Column("class"), Column("wait (s)", "{:.3f}"),
         Column("cost", "{:.0f}"), Column("period"), Column("note")],
        [
            [span.query_id, span.class_name, span.duration, span.estimated_cost,
             span.period, "truncated" if span.truncated else ""]
            for span in slowest_spans(spans, phase="queue_wait", n=top)
        ],
        "Top {} slowest queue waits".format(top),
        empty="none recorded",
    )
    return [phases, waits]


def fault_table(entries: Sequence[Dict], title: Optional[str] = None) -> Table:
    """Faults as ``FaultInjector.injected`` logs them: time, name, parameters."""
    rows = [
        [
            entry["time"],
            entry["fault"],
            ", ".join(
                "{}={}".format(key, value)
                for key, value in entry.items()
                if key not in ("fault", "time")
            ),
        ]
        for entry in entries
    ]
    return Table(
        [Column("t (s)", "{:.3f}"), Column("fault"), Column("details")],
        rows,
        title or "Injected faults ({})".format(len(rows)),
    )


def violation_table(violations, title: str, empty: str = "no violations") -> Table:
    """Invariant violations, one described per row."""
    rows = [[violation.describe()] for violation in violations]
    return Table([Column("violation")], rows, title, empty)


def invariant_table(harness) -> Table:
    """What a run's validation harness checked and found."""
    return violation_table(
        harness.violations,
        "Invariants ({} registered, {} checks, mode={})".format(
            len(harness.registry), harness.checks_run, harness.mode
        ),
    )


def run_tables(result) -> List[Table]:
    """The sections of one finished run, in the order they are shown.

    Goal metrics and attainment always; class cost limits for a Query
    Scheduler run; the control-loop telemetry sections when the controller
    recorded telemetry; injected faults and the invariant summary (last)
    when the run carried an injector or a validation harness.
    """
    tables = [
        period_table(result.collector, result.classes),
        attainment_table(result.collector, result.classes),
    ]
    if result.controller_name in ("qs", "qs_detect"):
        tables.append(plan_table(result.collector, [c.name for c in result.classes]))
    store = result.extras.get("telemetry")
    if store is not None:
        tables += telemetry_tables(store)
    injector = result.extras.get("faults")
    if injector is not None:
        tables.append(fault_table(injector.injected))
    harness = result.extras.get("validation")
    if harness is not None:
        tables.append(invariant_table(harness))
    return tables


def calibration_table(curve: Sequence[Sequence[float]]) -> Table:
    """Throughput per system cost limit (``sweep_system_cost_limit``)."""
    columns = [Column("limit (tim)", "{:.0f}"), Column("queries/sec", "{:.4f}")]
    return Table(columns, curve)
