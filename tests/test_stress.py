"""Stress and failure-injection tests.

Edge conditions a production workload manager must survive: empty
workloads, monster-only workloads, closed-loop overload past saturation,
minimum-budget plans, and pathological schedules.
"""

import pytest

from repro.config import (
    MonitorConfig,
    OptimizerConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
    paper_classes,
)
from repro.experiments.runner import (
    ExperimentSpec,
    build_bundle,
    make_controller,
    run_spec,
)
from repro.workloads.schedule import PeriodSchedule, constant_schedule
from repro.workloads.spec import QueryTemplate, WorkloadMix
from repro.workloads.tpch import tpch_mix


def quick_config(**overrides):
    base = dict(
        scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=15.0),
    )
    base.update(overrides)
    return default_config(**base)


def test_zero_client_periods_do_not_crash():
    schedule = PeriodSchedule(
        30.0, {"class1": (0, 2), "class2": (0, 0), "class3": (5, 0)}
    )
    result = run_spec(ExperimentSpec(controller="qs", config=quick_config(), schedule=schedule))
    assert result.bundle.sim.now == pytest.approx(60.0)
    # Planner kept running even with empty classes.
    assert result.bundle.controller.planner.intervals_run >= 3


def test_monster_only_workload_progresses_via_starvation_guard():
    """Every query costs more than the whole class limit; the starvation
    guard must keep releasing them one at a time."""
    monster_mix = WorkloadMix(
        "monsters",
        [QueryTemplate("huge", "olap", cpu_demand=20.0, io_demand=40.0,
                       variability=0.0, parallelism=2, rounds=2)],
    )
    classes = [
        ServiceClass("class1", "olap", VelocityGoal(0.4), 1),
        ServiceClass("class3", "oltp", ResponseTimeGoal(0.25), 3),
    ]
    schedule = constant_schedule(60.0, 2, {"class1": 3, "class3": 2})
    bundle = build_bundle(
        config=quick_config(scale=WorkloadScaleConfig(period_seconds=60.0, num_periods=2)),
        schedule=schedule,
        classes=classes,
        mixes={"class1": monster_mix, "class3": _tiny_oltp_mix()},
    )
    controller = make_controller(bundle, "qs")
    controller.start()
    bundle.manager.start()
    bundle.run()
    assert bundle.collector.total_completions > 0
    completed_olap = sum(
        c or 0
        for c in (
            (cell.completions if cell else 0)
            for cell in (
                bundle.collector.cell(p, "class1") for p in range(2)
            )
        )
    )
    assert completed_olap >= 1


def _tiny_oltp_mix():
    return WorkloadMix(
        "tiny",
        [QueryTemplate("t", "oltp", cpu_demand=0.005, io_demand=0.002,
                       variability=0.0)],
    )


def test_open_loop_overload_is_survived_by_admission_control():
    """Demand far beyond capacity (40 zero-think-time OLAP clients): the QP
    queue grows but the engine stays under its cost limit and keeps
    completing work."""
    classes = [ServiceClass("class1", "olap", VelocityGoal(0.4), 1)]
    schedule = constant_schedule(30.0, 2, {"class1": 40})
    bundle = build_bundle(
        config=quick_config(), schedule=schedule, classes=classes,
        mixes={"class1": tpch_mix()},
    )
    controller = make_controller(bundle, "none")
    controller.start()
    bundle.manager.start()
    bundle.run()
    assert bundle.engine.completed_queries > 0
    # Admission control held the line: executing cost stayed bounded.
    assert bundle.engine.overload.peak_cost < 60_000.0
    # And the backlog is real (the system was genuinely overloaded).
    assert controller.queued > 5


def test_min_budget_plan_everywhere_still_progresses():
    """Force the system cost limit to the bare minimum the solver accepts."""
    config = quick_config(system_cost_limit=3_000.0)
    schedule = constant_schedule(30.0, 2, {"class1": 2, "class2": 2, "class3": 4})
    result = run_spec(ExperimentSpec(controller="qs", config=config, schedule=schedule))
    assert result.collector.total_completions > 0
    for _, limits in result.collector._plan_points:
        assert sum(limits.values()) <= 3_000.0 + 1e-6


def test_extreme_optimizer_noise_never_wedges():
    config = quick_config(optimizer=OptimizerConfig(noise_sigma=1.5))
    result = run_spec(ExperimentSpec(controller="qs", config=config,
                            schedule=constant_schedule(30.0, 2,
                                {"class1": 2, "class2": 2, "class3": 6})))
    assert result.collector.total_completions > 50


def test_single_class_system():
    classes = [ServiceClass("solo", "olap", VelocityGoal(0.5), 1)]
    schedule = constant_schedule(30.0, 2, {"solo": 3})
    bundle = build_bundle(config=quick_config(), schedule=schedule,
                          classes=classes, mixes={"solo": tpch_mix()})
    controller = make_controller(bundle, "qs")
    controller.start()
    bundle.manager.start()
    bundle.run()
    assert bundle.engine.completed_queries > 0
    assert controller.plan.limit("solo") > 0


def test_all_controllers_survive_burst_schedule():
    burst = PeriodSchedule(
        20.0, {"class1": (0, 4, 0), "class2": (4, 0, 4), "class3": (2, 20, 2)}
    )
    config = quick_config(scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=3))
    for controller in ("none", "qp", "qs", "mpl", "direct"):
        result = run_spec(ExperimentSpec(controller=controller, config=config, schedule=burst))
        assert result.collector.total_completions > 0, controller
