"""Integration: more service classes than the paper's three.

With more than three classes the solver switches from exhaustive simplex
enumeration to greedy unit reallocation; this exercises that path through
the full pipeline, plus multi-class classification and dispatching.
"""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.experiments.runner import build_bundle, make_controller
from repro.workloads.schedule import constant_schedule
from repro.workloads.tpcc import tpcc_mix
from repro.workloads.tpch import tpch_mix


@pytest.fixture(scope="module")
def five_class_run():
    classes = [
        ServiceClass("adhoc", "olap", VelocityGoal(0.3), importance=1),
        ServiceClass("reports", "olap", VelocityGoal(0.4), importance=1),
        ServiceClass("dashboards", "olap", VelocityGoal(0.5), importance=2),
        ServiceClass("exec", "olap", VelocityGoal(0.6), importance=2),
        ServiceClass("orders", "oltp", ResponseTimeGoal(0.25), importance=3),
    ]
    olap = tpch_mix()
    mixes = {c.name: (olap if c.kind == "olap" else tpcc_mix()) for c in classes}
    schedule = constant_schedule(
        60.0, 2,
        {"adhoc": 2, "reports": 2, "dashboards": 2, "exec": 2, "orders": 12},
    )
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=60.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=30.0),
        planner=PlannerConfig(control_interval=30.0),
    )
    bundle = build_bundle(config=config, schedule=schedule,
                          classes=classes, mixes=mixes)
    scheduler = make_controller(bundle, "qs")
    scheduler.planner.add_plan_listener(bundle.collector.on_plan)
    scheduler.start()
    bundle.manager.start()
    bundle.run()
    return bundle, scheduler


def test_greedy_solver_path_used(five_class_run):
    bundle, scheduler = five_class_run
    assert scheduler.planner.intervals_run >= 3
    assert scheduler.solver.solve_calls >= 3


def test_plans_cover_all_five_classes(five_class_run):
    bundle, scheduler = five_class_run
    plan = scheduler.plan
    assert len(plan) == 5
    assert plan.total_allocated <= bundle.config.system_cost_limit + 1e-6
    for name in plan:
        assert plan.limit(name) >= bundle.config.planner.min_class_limit - 1e-9


def test_all_classes_complete_work(five_class_run):
    bundle, _ = five_class_run
    for name in ("adhoc", "reports", "dashboards", "exec", "orders"):
        series = bundle.collector.metric_series(name, "throughput")
        assert any(v for v in series if v), name


def test_oltp_class_still_bypasses(five_class_run):
    bundle, _ = five_class_run
    assert not bundle.patroller.intercepts("orders")
    for name in ("adhoc", "reports", "dashboards", "exec"):
        assert bundle.patroller.intercepts(name)


def test_dispatcher_isolates_five_queues(five_class_run):
    bundle, scheduler = five_class_run
    for name in ("adhoc", "reports", "dashboards", "exec"):
        assert scheduler.dispatcher.class_accounting(name).queue_length >= 0
        assert scheduler.dispatcher.class_accounting(name).in_flight_cost >= 0.0
