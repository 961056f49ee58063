"""Extension: explicit workload detection (Section 2's first process).

The paper's framework is "workload detection and workload control", but the
evaluated prototype re-plans on a fixed interval — detection is implicit in
the sampling.  This bench makes it explicit: with the control interval
slowed to one decision per workload period (the worst case for a fixed
cadence), an arrival-rate change detector triggers early re-planning and
recovers most of the lost OLTP goal attainment.
"""

from __future__ import annotations

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import ExperimentSpec, run_spec


def _slow_cadence_config():
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=240.0, num_periods=9),
        planner=PlannerConfig(control_interval=240.0),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=60.0),
    )


def test_detection_recovers_slow_cadence(report):
    config = _slow_cadence_config()

    fixed = run_spec(ExperimentSpec(controller="qs", config=config))
    detecting = run_spec(ExperimentSpec(controller="qs_detect", config=config))
    report("")
    report("=== Extension: workload detection at one plan per period ===")
    report("{:>12} | {:>8} | {:>8} | {:>8} | {:>14}".format(
        "controller", "class1", "class2", "class3", "early replans"))
    report("-" * 64)
    for label, result in (("fixed", fixed), ("detecting", detecting)):
        att = result.goal_attainment()
        controller = result.bundle.controller
        early = controller.planner.early_triggers
        report("{:>12} | {:>7.0%} | {:>7.0%} | {:>7.0%} | {:>14}".format(
            label, att["class1"], att["class2"], att["class3"], early))

    detector = detecting.bundle.controller.detector
    assert detector is not None
    report("shifts detected: {} over {} buckets".format(
        len(detector.shifts), detector.buckets_seen))

    # Detection actually fired and triggered off-schedule re-planning.
    assert len(detector.shifts) > 0
    assert detecting.bundle.controller.planner.early_triggers > 0
    # And it pays: the OLTP class does at least as well as the fixed
    # cadence, typically recovering the heavy-period misses.
    assert (
        detecting.goal_attainment()["class3"]
        >= fixed.goal_attainment()["class3"]
    )
