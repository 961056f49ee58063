"""SLO differentiation: compare every controller on the paper's workload.

Runs a shortened version (9 of 18 periods, half-length) of the paper's
mixed workload under each controller — no control, DB2 QP static control,
MPL admission control, and the Query Scheduler — and prints a side-by-side
goal-attainment comparison, i.e. the condensed story of Figures 4-6.

Run with:  python examples/slo_differentiation.py
"""

from __future__ import annotations

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import ExperimentSpec, run_spec

CONTROLLERS = (
    ("none", "No class control (Fig. 4)"),
    ("qp", "DB2 QP priority control (Fig. 5)"),
    ("mpl", "MPL admission control ([5])"),
    ("qs", "Query Scheduler (Fig. 6)"),
)


def main() -> None:
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=120.0, num_periods=9),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=60.0),
        planner=PlannerConfig(control_interval=60.0),
    )

    rows = []
    for name, label in CONTROLLERS:
        print("running {} ...".format(label))
        result = run_spec(ExperimentSpec(controller=name, config=config))
        attainment = result.goal_attainment()
        class3_series = [
            v
            for v in result.collector.performance_series(
                next(c for c in result.classes if c.name == "class3")
            )
            if v is not None
        ]
        rows.append((label, attainment, max(class3_series)))

    print()
    print("{:<34} | {:>7} | {:>7} | {:>7} | {:>12}".format(
        "controller", "class1", "class2", "class3", "worst c3 rt"))
    print("-" * 82)
    for label, attainment, worst in rows:
        print("{:<34} | {:>6.0%} | {:>6.0%} | {:>6.0%} | {:>10.3f}s".format(
            label,
            attainment["class1"],
            attainment["class2"],
            attainment["class3"],
            worst,
        ))
    print()
    print("class goals: class1 velocity 0.40, class2 velocity 0.60, "
          "class3 avg response time 0.25s")


if __name__ == "__main__":
    main()
