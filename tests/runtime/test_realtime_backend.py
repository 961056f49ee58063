"""Real-time timer service semantics and an end-to-end SQLite run."""

from __future__ import annotations

import threading

import pytest

from repro.config import (
    MonitorConfig,
    PatrollerConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.errors import SimulationError
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.obs import validate_spans
from repro.runtime import RealTimeTimerService, WallClock


class SteppedClock:
    """Manually advanced clock for deterministic timer-service tests."""

    def __init__(self):
        self.t = 0.0

    @property
    def now(self):
        return self.t


def test_wall_clock_starts_near_zero_and_advances():
    clock = WallClock()
    first = clock.now
    assert 0.0 <= first < 1.0
    assert clock.now >= first


def test_timer_service_fires_in_order_with_fake_clock():
    clock = SteppedClock()
    timers = RealTimeTimerService(clock)
    fired = []
    timers.schedule_at(0.2, lambda: fired.append("b"))
    timers.schedule_at(0.1, lambda: fired.append("a"))
    timers.schedule_at(0.2, lambda: fired.append("c"))
    # With the clock pinned at 0, run_until(0) fires nothing.
    timers.run_until(0.0)
    assert fired == []
    clock.t = 0.3
    timers.run_until(0.3)
    assert fired == ["a", "b", "c"]
    assert timers.fired_events == 3
    assert timers.pending_events == 0


def test_timer_service_negative_delay_rejected():
    timers = RealTimeTimerService(SteppedClock())
    with pytest.raises(SimulationError):
        timers.schedule(-0.1, lambda: None)


def test_timer_service_nan_times_rejected():
    timers = RealTimeTimerService(SteppedClock())
    with pytest.raises(SimulationError, match="NaN"):
        timers.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError, match="NaN"):
        timers.schedule_at(float("nan"), lambda: None)
    assert timers.pending_events == 0


def test_timer_service_past_due_time_clamps_to_immediate():
    clock = SteppedClock()
    clock.t = 5.0
    timers = RealTimeTimerService(clock)
    fired = []
    timers.schedule_at(1.0, lambda: fired.append("late"))
    timers.run_until(5.0)
    assert fired == ["late"]


def test_timer_service_cancellation():
    clock = SteppedClock()
    timers = RealTimeTimerService(clock)
    fired = []
    handle = timers.schedule_at(0.1, lambda: fired.append("x"))
    assert handle.active
    assert handle.cancel() is True
    assert handle.cancel() is False
    assert not handle.active
    clock.t = 1.0
    timers.run_until(1.0)
    assert fired == []


def test_timer_service_cross_thread_schedule_wakes_loop():
    timers = RealTimeTimerService()  # real wall clock
    fired_at = []

    def poke():
        timers.schedule(0.0, lambda: fired_at.append(timers.now), label="x-thread")

    threading.Timer(0.05, poke).start()
    # The loop is sleeping with nothing scheduled; the cross-thread
    # schedule must wake it and fire well before the 0.5s horizon.
    timers.run_until(timers.now + 0.5)
    assert fired_at and fired_at[0] < 0.4


def test_run_until_is_not_reentrant():
    clock = SteppedClock()
    timers = RealTimeTimerService(clock)
    errors = []

    def reenter():
        try:
            timers.run_until(clock.now)
        except SimulationError as exc:
            errors.append(str(exc))

    timers.schedule_at(0.0, reenter)
    clock.t = 0.1
    timers.run_until(0.1)
    assert len(errors) == 1


def _sqlite_spec(controller="qs", invariants="strict"):
    config = default_config(
        seed=3,
        scale=WorkloadScaleConfig(period_seconds=1.0, num_periods=2, think_time=0.0),
        monitor=MonitorConfig(snapshot_interval=0.25, response_time_window=1.0),
        planner=PlannerConfig(control_interval=0.5),
        patroller=PatrollerConfig(interception_latency=0.02, release_latency=0.01),
    )
    return ExperimentSpec(
        controller=controller,
        config=config,
        invariants=invariants,
        backend="sqlite",
        backend_options=dict(workers=4, lineitem_rows=300, stock_rows=100),
    )


def test_sqlite_experiment_end_to_end():
    result = run_spec(_sqlite_spec().with_overrides(tracing=True))
    engine = result.bundle.engine
    # Real statements ran and every started query was retired.
    assert engine.completed_queries > 0
    assert engine.statements_issued > 0
    assert engine.execution_errors == 0, engine.last_error
    # Queries still in flight at the horizon are allowed; the live
    # accounting must agree with the per-query snapshot either way.
    snapshot = engine.executing_snapshot()
    assert len(snapshot) == engine.executing_queries
    assert engine.executing_cost() == pytest.approx(
        sum(entry.estimated_cost for entry in snapshot)
    )
    # Strict invariants rode along without raising.
    harness = result.extras["validation"]
    assert harness.checks_run >= 1
    assert [v for v in harness.violations] == []
    # The goal-attainment report is computable for every class.
    attainment = result.goal_attainment()
    assert set(attainment) == {c.name for c in result.classes}
    # Completions posted from the worker threads reached the engine's one
    # completion hook: each completed intercepted statement closed its own
    # execute span (only statements in flight at the horizon are left to
    # the end-of-run truncation; this run cancels nothing).
    tracer = result.extras["tracer"]
    assert tracer.balanced
    assert validate_spans(tracer.spans) == []
    completed = result.bundle.patroller.tables.counts_by_status().get("completed", 0)
    closed = [s for s in tracer.spans if s.phase == "execute" and not s.truncated]
    assert len(closed) == completed > 0
    # The backend was closed by run_spec (idempotent second close).
    result.bundle.close()


def test_sqlite_oltp_queries_are_fast_and_measured():
    result = run_spec(_sqlite_spec())
    collector = result.collector
    # OLTP completions exist and their measured response times are
    # wall-clock milliseconds, far under the 250 ms goal.
    oltp = [c for c in result.classes if c.kind == "oltp"]
    assert oltp
    attainment = result.goal_attainment()
    for service_class in oltp:
        assert attainment[service_class.name] > 0.0
    assert collector.total_completions == result.bundle.engine.completed_queries
