"""Ablation: control-interval sensitivity of the Scheduling Planner.

DESIGN.md calls out the re-planning cadence as a key design choice: too
slow and the controller lags the workload's period structure; too fast and
it chases measurement noise.  This bench sweeps the control interval on a
shortened paper workload and reports per-class goal attainment.
"""

from __future__ import annotations

import os

from repro.experiments.sensitivity import sweep

INTERVALS = (30.0, 60.0, 120.0)
JOBS = min(len(INTERVALS), os.cpu_count() or 1)


def test_control_interval_sweep(report, ablation_config):
    rows = dict(sweep(
        "planner.control_interval", INTERVALS,
        controller="qs", config=ablation_config, jobs=JOBS,
    ))
    report("")
    report("=== Ablation: control interval vs goal attainment ===")
    report("{:>14} | {:>8} | {:>8} | {:>8}".format(
        "interval (s)", "class1", "class2", "class3"))
    report("-" * 50)
    for interval in INTERVALS:
        att = rows[interval]
        report("{:>14.0f} | {:>7.0%} | {:>7.0%} | {:>7.0%}".format(
            interval, att["class1"], att["class2"], att["class3"]))

    # Every cadence must keep the controller functional for the OLTP class.
    for interval in INTERVALS:
        assert rows[interval]["class3"] >= 0.4
    # The slowest cadence cannot beat the best reactive cadence on the
    # OLTP class: one decision per period means reacting a period late.
    best_fast = max(rows[30.0]["class3"], rows[60.0]["class3"])
    assert rows[120.0]["class3"] <= best_fast + 0.15
