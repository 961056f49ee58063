"""Custom workloads: define your own classes, templates, goals and schedule.

Shows the library as a downstream user would adopt it: a reporting class
(big scans), an ETL class (medium batch queries), and an interactive
point-lookup class, each with its own SLO and importance, driven through
the Query Scheduler on a custom intensity schedule.

Run with:  python examples/custom_workload.py
"""

from __future__ import annotations

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.service_class import ResponseTimeGoal, ServiceClass, VelocityGoal
from repro.experiments.runner import build_bundle, make_controller
from repro.metrics.report import attainment_table, period_table
from repro.workloads.schedule import PeriodSchedule
from repro.workloads.spec import QueryTemplate, WorkloadMix


def build_workloads():
    reporting = WorkloadMix(
        "reporting",
        [
            QueryTemplate("daily_rollup", "olap", cpu_demand=5.0, io_demand=9.0,
                          rounds=4, weight=2.0, parallelism=2),
            QueryTemplate("cohort_scan", "olap", cpu_demand=3.0, io_demand=6.0,
                          rounds=4, weight=3.0, parallelism=2),
            QueryTemplate("year_end", "olap", cpu_demand=9.0, io_demand=16.0,
                          rounds=4, weight=1.0, parallelism=2),
        ],
    )
    etl = WorkloadMix(
        "etl",
        [
            QueryTemplate("load_batch", "olap", cpu_demand=2.0, io_demand=5.0,
                          rounds=2, weight=3.0, parallelism=2),
            QueryTemplate("transform", "olap", cpu_demand=3.5, io_demand=4.0,
                          rounds=2, weight=2.0, parallelism=2),
        ],
    )
    lookups = WorkloadMix(
        "lookups",
        [
            QueryTemplate("point_read", "oltp", cpu_demand=0.008, io_demand=0.004,
                          weight=7.0),
            QueryTemplate("point_write", "oltp", cpu_demand=0.016, io_demand=0.006,
                          weight=3.0),
        ],
    )
    return reporting, etl, lookups


def main() -> None:
    reporting_mix, etl_mix, lookup_mix = build_workloads()
    classes = [
        ServiceClass("reporting", "olap", VelocityGoal(0.5), importance=1),
        ServiceClass("etl", "olap", VelocityGoal(0.7), importance=2),
        ServiceClass("lookups", "oltp", ResponseTimeGoal(0.20), importance=3),
    ]
    schedule = PeriodSchedule(
        90.0,
        {
            "reporting": (3, 3, 5, 5, 3, 3),
            "etl": (2, 4, 2, 4, 2, 4),
            "lookups": (10, 10, 22, 22, 10, 22),
        },
    )
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=90.0, num_periods=6),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=45.0),
        planner=PlannerConfig(control_interval=45.0),
    )

    bundle = build_bundle(
        config=config,
        schedule=schedule,
        classes=classes,
        mixes={
            "reporting": reporting_mix,
            "etl": etl_mix,
            "lookups": lookup_mix,
        },
    )
    scheduler = make_controller(bundle, "qs")
    scheduler.planner.add_plan_listener(bundle.collector.on_plan)
    scheduler.start()
    bundle.manager.start()
    bundle.run()

    print(scheduler.describe())
    print()
    print(period_table(bundle.collector, classes, title="Per-period metrics").text())
    print()
    print(attainment_table(bundle.collector, classes).text())
    print()
    print("Cost limits over time for the lookup class (time, timerons):")
    for time, limit in bundle.collector.plan_series("lookups"):
        print("  {:>6.0f}s  {:>8.0f}".format(time, limit))


if __name__ == "__main__":
    main()
