"""Fixed-seed regression pin: the backend refactor must not move the sim.

The golden values below were captured from a seeded run of the
quality-of-service controller *before* the execution-backend abstraction
was introduced.  Routing the same experiment through
the ``sim`` backend must reproduce every per-period performance value,
the attainment summary, and each of the eight planner decisions exactly
(plans to the timeron; performance bit-for-bit).  Any drift means the
refactor changed construction order, RNG stream consumption, or event
scheduling — all of which are supposed to be frozen.
"""

from __future__ import annotations

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import ExperimentSpec, run_spec

GOLDEN_SERIES = {
    "class1": [
        0.8189156687404642,
        0.8028275232882622,
        0.9926235876932769,
        0.8271969992774236,
    ],
    "class2": [
        0.9863158377018575,
        0.9308861785479271,
        0.8857358290065854,
        0.9223383901311384,
    ],
    "class3": [
        0.15654974726244833,
        0.2237474263066036,
        0.2598878320343518,
        0.1811418679260822,
    ],
}

GOLDEN_ATTAINMENT = {"class1": 1.0, "class2": 1.0, "class3": 0.75}

#: Planner cost-limit decisions, in decision order, rounded to the timeron.
GOLDEN_PLANS = [
    {"class1": 14000, "class2": 15000, "class3": 1000},
    {"class1": 13000, "class2": 16000, "class3": 1000},
    {"class1": 14000, "class2": 15000, "class3": 1000},
    {"class1": 13000, "class2": 16000, "class3": 1000},
    {"class1": 7000, "class2": 11000, "class3": 12000},
    {"class1": 8000, "class2": 13000, "class3": 9000},
    {"class1": 8000, "class2": 15000, "class3": 7000},
    {"class1": 8000, "class2": 17000, "class3": 5000},
]


def _golden_spec() -> ExperimentSpec:
    config = default_config(
        seed=11,
        scale=WorkloadScaleConfig(period_seconds=60.0, num_periods=4),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=30.0),
    )
    return ExperimentSpec(controller="qs", config=config, backend="sim")


def test_seeded_sim_run_matches_pre_refactor_golden_data():
    result = run_spec(_golden_spec())

    series = result.performance_series()
    assert set(series) == set(GOLDEN_SERIES)
    for class_name, golden in GOLDEN_SERIES.items():
        assert series[class_name] == golden, class_name

    assert result.goal_attainment() == GOLDEN_ATTAINMENT

    plans = [
        {name: round(limit) for name, limit in limits.items()}
        for _, limits in result.collector._plan_points
    ]
    assert plans == GOLDEN_PLANS


def test_seeded_sim_run_is_reproducible_across_invocations():
    first = run_spec(_golden_spec())
    second = run_spec(_golden_spec())
    assert first.performance_series() == second.performance_series()
    assert first.collector._plan_points == second.collector._plan_points
    assert (
        first.bundle.engine.completed_queries
        == second.bundle.engine.completed_queries
    )


def test_backend_object_is_attached_to_bundle():
    bundle = run_spec(_golden_spec()).bundle
    assert bundle.backend == "sim"
    # The bundle's engine runs on the bundle's own timer service.
    assert bundle.engine.sim is bundle.sim
