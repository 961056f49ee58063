"""Tests for the deficit-weighted heuristic allocator."""

import pytest

from repro.core.heuristic import DeficitAllocator
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.core.solver import ClassStatus
from repro.errors import SchedulingError


def olap_status(name, goal, importance, velocity, limit=10_000.0):
    return ClassStatus(
        ServiceClass(name, "olap", VelocityGoal(goal), importance), limit, velocity
    )


def oltp_status(name, goal, importance, rt, limit=10_000.0):
    return ClassStatus(
        ServiceClass(name, "oltp", ResponseTimeGoal(goal), importance), limit, rt
    )


def make_allocator(system_cost_limit=30_000.0):
    return DeficitAllocator(system_cost_limit)


def test_respects_budget_and_minimums():
    allocator = make_allocator()
    plan = allocator.solve([
        olap_status("a", 0.4, 1, 0.2),
        olap_status("b", 0.6, 2, 0.3),
        oltp_status("c", 0.25, 3, 0.4),
    ])
    assert plan.total_allocated <= 30_000.0 + 1e-9
    for name in plan:
        assert plan.limit(name) >= 1_000.0


def test_bigger_deficit_gets_more():
    allocator = make_allocator()
    plan = allocator.solve([
        olap_status("hurting", 0.6, 1, 0.1),
        olap_status("fine", 0.6, 1, 0.9),
    ])
    assert plan.limit("hurting") > plan.limit("fine")


def test_importance_scales_share():
    allocator = make_allocator()
    plan = allocator.solve([
        olap_status("lo", 0.6, 1, 0.3),
        olap_status("hi", 0.6, 3, 0.3),
    ])
    assert plan.limit("hi") > plan.limit("lo")


def test_all_satisfied_splits_evenly():
    allocator = make_allocator()
    plan = allocator.solve([
        olap_status("a", 0.4, 1, 0.9),
        olap_status("b", 0.4, 1, 0.9),
    ])
    assert plan.limit("a") == pytest.approx(plan.limit("b"), abs=1_000.0)


def test_deficit_floor_keeps_satisfied_class_alive():
    status = olap_status("fine", 0.4, 1, 1.0)
    assert DeficitAllocator.deficit(status) == pytest.approx(0.05)


def test_missing_measurement_counts_as_at_goal():
    allocator = make_allocator()
    status = ClassStatus(
        ServiceClass("x", "olap", VelocityGoal(0.5), 1), 10_000.0, None
    )
    assert DeficitAllocator.deficit(status) == pytest.approx(0.05)


def test_validation():
    with pytest.raises(SchedulingError):
        make_allocator(system_cost_limit=0.0)
    with pytest.raises(SchedulingError):
        make_allocator().solve([])
    tiny = make_allocator(system_cost_limit=1_500.0)
    with pytest.raises(SchedulingError):
        tiny.solve([olap_status("a", 0.4, 1, 0.2), olap_status("b", 0.4, 1, 0.2)])


def test_scheduler_accepts_deficit_allocator():
    """The QueryScheduler wires the heuristic when configured."""
    from repro.config import PlannerConfig, default_config
    from repro.core.scheduler import QueryScheduler
    from repro.core.service_class import paper_classes
    from repro.dbms.engine import DatabaseEngine
    from repro.patroller.patroller import QueryPatroller
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams

    sim = Simulator()
    config = default_config(planner=PlannerConfig(allocator="deficit",
                                                  control_interval=10.0))
    engine = DatabaseEngine(sim, config, RandomStreams(81))
    patroller = QueryPatroller(sim, engine)
    scheduler = QueryScheduler(sim, engine, patroller, list(paper_classes()), config)
    assert isinstance(scheduler.solver, DeficitAllocator)
    scheduler.start()
    sim.run_until(25.0)
    assert scheduler.planner.intervals_run == 2  # loop works model-free
