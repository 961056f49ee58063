"""End-to-end integration tests across the full stack.

These run short scaled-down versions of the paper's experiment and assert
the *shape* claims the paper makes (who wins, in which periods), not
absolute numbers.
"""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.workloads.schedule import PeriodSchedule

#: Mixed-intensity mini-schedule: OLTP light / heavy / light / heavy.
MINI = PeriodSchedule(
    60.0,
    {
        "class1": (2, 3, 2, 3),
        "class2": (3, 4, 3, 4),
        "class3": (10, 25, 10, 25),
    },
)


def mini_config(seed=7):
    return default_config(
        seed=seed,
        scale=WorkloadScaleConfig(period_seconds=60.0, num_periods=4),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=30.0),
        planner=PlannerConfig(control_interval=30.0),
    )


@pytest.fixture(scope="module")
def qs_result():
    return run_spec(ExperimentSpec(controller="qs", config=mini_config(), schedule=MINI))


@pytest.fixture(scope="module")
def none_result():
    return run_spec(ExperimentSpec(controller="none", config=mini_config(), schedule=MINI))


def test_all_classes_complete_work(qs_result):
    for name in ("class1", "class2", "class3"):
        series = qs_result.collector.metric_series(name, "throughput")
        assert any(v for v in series if v)


def test_oltp_bypasses_interception(qs_result):
    bundle = qs_result.bundle
    assert bundle.patroller.bypassed_count > 1_000  # all the TPC-C traffic
    assert bundle.patroller.intercepted_count > 0  # the TPC-H traffic


def test_velocities_are_valid_ratios(qs_result):
    for name in ("class1", "class2"):
        for value in qs_result.collector.metric_series(name, "velocity"):
            if value is not None:
                assert 0.0 < value <= 1.0


def test_qs_reacts_to_oltp_intensity(qs_result):
    """The OLTP reservation at the end of a heavy period exceeds the
    reservation at the end of a light period (measurement lag means the
    *start* of each period still reflects the previous one)."""
    series = qs_result.collector.plan_series("class3")

    def last_in_period(period):
        lo, hi = period * 60.0, (period + 1) * 60.0
        candidates = [limit for t, limit in series if lo < t <= hi]
        return candidates[-1] if candidates else None

    heavy = [v for v in (last_in_period(1), last_in_period(3)) if v is not None]
    light = [v for v in (last_in_period(0), last_in_period(2)) if v is not None]
    assert heavy and light
    assert max(heavy) > min(light)
    assert sum(heavy) / len(heavy) > sum(light) / len(light)


def test_qs_plans_respect_system_limit(qs_result):
    for _, limits in qs_result.collector._plan_points:
        assert sum(limits.values()) <= 30_000.0 + 1e-6


def test_qs_beats_no_control_on_oltp_goal(qs_result, none_result):
    """The headline claim: dynamic adaptation protects Class 3."""
    class3 = next(c for c in qs_result.classes if c.name == "class3")
    qs_attainment = qs_result.collector.goal_attainment(class3)
    none_attainment = none_result.collector.goal_attainment(class3)
    assert qs_attainment >= none_attainment
    # And specifically in the heavy periods, QS response time is lower.
    qs_series = qs_result.collector.performance_series(class3)
    none_series = none_result.collector.performance_series(class3)
    assert qs_series[3] < none_series[3]


def test_no_control_gives_no_differentiation(none_result):
    """Without class control, class 1 and class 2 look alike."""
    s1 = none_result.collector.metric_series("class1", "velocity")
    s2 = none_result.collector.metric_series("class2", "velocity")
    pairs = [(a, b) for a, b in zip(s1, s2) if a is not None and b is not None]
    assert pairs
    mean_gap = sum(abs(a - b) for a, b in pairs) / len(pairs)
    assert mean_gap < 0.2


def test_deterministic_given_seed():
    first = run_spec(ExperimentSpec(controller="qs", config=mini_config(seed=42), schedule=MINI))
    second = run_spec(ExperimentSpec(controller="qs", config=mini_config(seed=42), schedule=MINI))
    assert first.collector.total_completions == second.collector.total_completions
    class3 = next(c for c in first.classes if c.name == "class3")
    assert first.collector.performance_series(class3) == pytest.approx(
        second.collector.performance_series(class3)
    )


def test_different_seeds_differ():
    first = run_spec(ExperimentSpec(controller="qs", config=mini_config(seed=1), schedule=MINI))
    second = run_spec(ExperimentSpec(controller="qs", config=mini_config(seed=2), schedule=MINI))
    assert first.collector.total_completions != second.collector.total_completions


def test_engine_drains_after_horizon(qs_result):
    """Nothing in flight can be counted as completed twice; counters agree."""
    bundle = qs_result.bundle
    engine = bundle.engine
    in_flight = engine.executing_queries
    completed = engine.completed_queries
    assert completed == qs_result.collector.total_completions
    assert in_flight >= 0
    assert bundle.patroller.held_queries + in_flight <= 60  # bounded by clients
