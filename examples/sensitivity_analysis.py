"""Sensitivity analysis: how robust is the controller to its knobs?

Uses the generic configuration sweep to answer two practical questions on
a shortened paper workload:

1. how does the control interval trade reaction speed for stability?
2. how sensitive is goal attainment to the thrashing knee's position
   (i.e. to how well the system cost limit was calibrated)?

Both sweeps fan their runs over worker processes (``jobs=None`` = one per
CPU); the results are identical to a serial run, just faster.

Run with:  python examples/sensitivity_analysis.py
"""

from __future__ import annotations

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.sensitivity import sweep, sweep_table


def main() -> None:
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=120.0, num_periods=6),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=60.0),
        planner=PlannerConfig(control_interval=60.0),
    )
    class_names = ["class1", "class2", "class3"]

    print("sweeping planner.control_interval ...")
    intervals = sweep(
        "planner.control_interval", [30.0, 60.0, 120.0],
        controller="qs", config=config, jobs=None,
    )
    print(sweep_table("planner.control_interval", intervals, class_names).text())
    print()

    print("sweeping overload.knee_cost ...")
    knees = sweep(
        "overload.knee_cost", [18_000.0, 26_000.0, 34_000.0],
        controller="qs", config=config, jobs=None,
    )
    print(sweep_table("overload.knee_cost", knees, class_names).text())
    print()
    print("(values are per-class goal attainment across the 6 periods)")


if __name__ == "__main__":
    main()
