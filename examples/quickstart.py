"""Quickstart: run the Query Scheduler on a small mixed workload.

Builds the full simulated stack (DB2-like engine + Query Patroller +
TPC-H/TPC-C clients), installs the Query Scheduler, runs a few minutes of
simulated time, and prints per-class SLO attainment and the final plan.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.metrics.report import attainment_table, period_table
from repro.workloads.schedule import PeriodSchedule


def main() -> None:
    # Four 90-second periods: OLTP load swings light -> heavy -> light -> heavy.
    schedule = PeriodSchedule(
        90.0,
        {
            "class1": (2, 3, 2, 3),
            "class2": (3, 4, 3, 4),
            "class3": (12, 25, 12, 25),
        },
    )
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=90.0, num_periods=4),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=45.0),
        planner=PlannerConfig(control_interval=45.0),
    )

    result = run_spec(ExperimentSpec(controller="qs", config=config, schedule=schedule))

    print(result.bundle.controller.describe())
    print()
    print(period_table(result.collector, result.classes).text())
    print()
    print(attainment_table(result.collector, result.classes).text())
    print()
    plan = result.bundle.controller.plan
    print("Final scheduling plan (timerons):")
    for name, limit in sorted(plan.items()):
        print("  {:<8} {:>8.0f}".format(name, limit))
    print("  {:<8} {:>8.0f}  (system cost limit)".format("total", plan.system_cost_limit))


if __name__ == "__main__":
    main()
