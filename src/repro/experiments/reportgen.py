"""Markdown report generation.

``generate_report`` re-runs the paper's headline experiments and renders a
self-contained Markdown report (per-figure tables, attainment summaries,
and the Figure 7 plan trace) — a fresh, machine-generated counterpart to
the hand-curated EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    SimulationConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.figures import figure4, figure5, figure6, figure7
from repro.experiments.runner import ExperimentResult
from repro.metrics.export import open_export


def quick_report_config() -> SimulationConfig:
    """A reduced configuration for fast report generation (~1 min)."""
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=120.0, num_periods=9),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=60.0),
        planner=PlannerConfig(control_interval=60.0),
    )


def _metric_label(service_class) -> str:
    return "velocity" if service_class.kind == "olap" else "avg rt (s)"


def _result_section(title: str, result: ExperimentResult) -> List[str]:
    lines = ["## {}".format(title), ""]
    lines.append("controller: `{}`".format(result.controller_name))
    lines.append("")
    header = "| period |" + "".join(
        " {} ({}) |".format(c.name, _metric_label(c)) for c in result.classes
    )
    rule = "|---|" + "---|" * len(result.classes)
    lines.append(header)
    lines.append(rule)
    series = {c.name: result.collector.performance_series(c) for c in result.classes}
    for period in range(result.schedule.num_periods):
        row = "| {} |".format(period + 1)
        for c in result.classes:
            value = series[c.name][period]
            if value is None:
                row += " - |"
            else:
                marker = "" if c.goal.satisfied(value) else " **miss**"
                row += " {:.3f}{} |".format(value, marker)
        lines.append(row)
    lines.append("")
    lines.append(
        "attainment: "
        + ", ".join(
            "{} {:.0%}".format(c.name, result.collector.goal_attainment(c))
            for c in result.classes
        )
    )
    lines.append("")
    return lines


def _plan_section(result: ExperimentResult) -> List[str]:
    lines = ["## Class cost limits under Query Scheduler (Figure 7)", ""]
    names = [c.name for c in result.classes]
    lines.append("| period |" + "".join(" {} |".format(n) for n in names))
    lines.append("|---|" + "---|" * len(names))
    means = {n: result.collector.plan_period_means(n) for n in names}
    for period in range(result.schedule.num_periods):
        row = "| {} |".format(period + 1)
        for n in names:
            value = means[n][period]
            row += " - |" if value is None else " {:.0f} |".format(value)
        lines.append(row)
    lines.append("")
    return lines


def _telemetry_section(result: ExperimentResult) -> List[str]:
    """Controller telemetry: model prediction error and loop accounting."""
    store = result.extras.get("telemetry")
    if store is None or len(store) == 0:
        return []
    lines = ["## Controller telemetry", ""]
    lines.append(
        "{} control intervals recorded ({} early-triggered).".format(
            len(store),
            sum(1 for record in store if record.trigger == "early"),
        )
    )
    lines.append("")
    summaries = store.prediction_error_summary()
    if summaries:
        lines.append("One-step prediction error (realized minus predicted):")
        lines.append("")
        lines.append("| class | intervals | mean abs error | mean error |")
        lines.append("|---|---|---|---|")
        for name in sorted(summaries):
            summary = summaries[name]
            lines.append(
                "| {} | {} | {:.4f} | {:+.4f} |".format(
                    name, summary.count, summary.mean_abs_error, summary.mean_error
                )
            )
        lines.append("")
    balance = store.dispatcher_balance()
    if balance:
        lines.append("Dispatcher accounting at end of run:")
        lines.append("")
        lines.append("| class | released | completed | cancelled | in flight |")
        lines.append("|---|---|---|---|---|")
        for name in sorted(balance):
            counts = balance[name]
            lines.append(
                "| {} | {} | {} | {} | {} |".format(
                    name,
                    counts["released"],
                    counts["completed"],
                    counts["cancelled"],
                    counts["in_flight"],
                )
            )
        lines.append("")
    overhead = store.overhead_summary()
    if overhead:
        lines.append(
            "Controller self-overhead (wall-clock seconds per control "
            "interval, `time.perf_counter` — not simulated time):"
        )
        lines.append("")
        lines.append("| section | mean (s) | max (s) | intervals |")
        lines.append("|---|---|---|---|")
        for key in sorted(overhead):
            stats = overhead[key]
            lines.append(
                "| {} | {:.6f} | {:.6f} | {} |".format(
                    key, stats["mean_s"], stats["max_s"], stats["count"]
                )
            )
        lines.append("")
    return lines


def _span_section(result: ExperimentResult) -> List[str]:
    """Per-class queue-wait/execute percentiles from the lifecycle trace."""
    tracer = result.extras.get("tracer")
    if tracer is None or not tracer.spans:
        return []
    from repro.obs import phase_breakdown
    from repro.obs.spans import PHASES

    lines = ["## Query lifecycle spans", ""]
    lines.append(
        "{} spans across {} traced queries (balanced: {}).".format(
            len(tracer.spans),
            len({s.query_id for s in tracer.spans}),
            tracer.balanced,
        )
    )
    lines.append("")
    lines.append("| class | phase | count | mean (s) | p50 (s) | p95 (s) | max (s) |")
    lines.append("|---|---|---|---|---|---|---|")
    breakdown = phase_breakdown(tracer.spans)
    for class_name in sorted(breakdown):
        for phase in PHASES:
            stats = breakdown[class_name].get(phase)
            if stats is None:
                continue
            lines.append(
                "| {} | {} | {} | {:.3f} | {:.3f} | {:.3f} | {:.3f} |".format(
                    class_name,
                    phase,
                    stats.count,
                    stats.mean,
                    stats.percentile(50.0),
                    stats.percentile(95.0),
                    stats.max,
                )
            )
    lines.append("")
    return lines


def generate_report(
    config: Optional[SimulationConfig] = None,
    controllers: Optional[Dict[str, str]] = None,
    tracing: bool = False,
) -> str:
    """Run the comparison experiments and return the Markdown report.

    With ``tracing`` the Query Scheduler run records per-query lifecycle
    spans and the report gains a per-class wait/execute percentile section.
    """
    config = (config or quick_report_config()).validate()
    lines: List[str] = [
        "# Generated experiment report",
        "",
        "Workload: {} periods x {:.0f}s; system cost limit {:.0f} timerons; "
        "seed {}.".format(
            config.scale.num_periods,
            config.scale.period_seconds,
            config.system_cost_limit,
            config.seed,
        ),
        "",
    ]
    qs_result = figure6(config, tracing=tracing)
    lines += _result_section("No class control (Figure 4)", figure4(config))
    lines += _result_section("DB2 QP priority control (Figure 5)", figure5(config))
    lines += _result_section("Query Scheduler (Figure 6)", qs_result)
    figure7(result=qs_result)  # validates the run is a QS run
    lines += _plan_section(qs_result)
    lines += _telemetry_section(qs_result)
    lines += _span_section(qs_result)
    return "\n".join(lines)


def write_report(
    path: str,
    config: Optional[SimulationConfig] = None,
    tracing: bool = False,
) -> str:
    """Generate and write the report; returns the Markdown text."""
    text = generate_report(config=config, tracing=tracing)
    with open_export(path, overwrite=True) as handle:
        handle.write(text)
    return text
