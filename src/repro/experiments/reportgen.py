"""Markdown report generation.

``generate_report`` re-runs the paper's headline experiments and renders
the sections of :mod:`repro.metrics.report` as one self-contained Markdown
document — a fresh, machine-generated counterpart to the hand-curated
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    SimulationConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.figures import figure4, figure5, figure6
from repro.metrics.export import open_export
from repro.metrics.report import run_tables, span_tables, telemetry_tables


def quick_report_config() -> SimulationConfig:
    """A reduced configuration for fast report generation (~1 min)."""
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=120.0, num_periods=9),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=60.0),
        planner=PlannerConfig(control_interval=60.0),
    )


def generate_report(
    config: Optional[SimulationConfig] = None,
    tracing: bool = False,
) -> str:
    """Run the comparison experiments and return the Markdown report.

    Each run contributes the sections ``repro run`` prints for it; the
    Query Scheduler run adds its telemetry sections (``repro trace
    --summary``) and, with ``tracing``, its span sections (``repro spans``).
    """
    config = (config or quick_report_config()).validate()
    qs_result = figure6(config, tracing=tracing)
    store = qs_result.extras["telemetry"]
    blocks: List[str] = [
        "# Generated experiment report",
        "Workload: {} periods x {:.0f}s; system cost limit {:.0f} timerons; "
        "seed {}.".format(
            config.scale.num_periods,
            config.scale.period_seconds,
            config.system_cost_limit,
            config.seed,
        ),
    ]
    for heading, result in (
        ("No class control (Figure 4)", figure4(config)),
        ("DB2 QP priority control (Figure 5)", figure5(config)),
        ("Query Scheduler (Figure 6) and its class cost limits (Figure 7)", qs_result),
    ):
        blocks.append("## {}".format(heading))
        blocks.append("controller: `{}`".format(result.controller_name))
        blocks += [table.markdown() for table in run_tables(result)]
    blocks.append("## Controller telemetry")
    blocks.append(
        "{} control intervals recorded ({} early-triggered).".format(
            len(store), sum(1 for record in store if record.trigger == "early")
        )
    )
    blocks += [table.markdown() for table in telemetry_tables(store)]
    if tracing:
        tracer = qs_result.extras["tracer"]
        blocks.append("## Query lifecycle spans")
        blocks.append(
            "{} spans across {} traced queries (balanced: {}).".format(
                len(tracer.spans),
                len({span.query_id for span in tracer.spans}),
                tracer.balanced,
            )
        )
        blocks += [table.markdown() for table in span_tables(tracer.spans)]
    return "\n\n".join(blocks) + "\n"


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
