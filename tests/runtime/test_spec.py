"""ExperimentSpec and the assemble / run / finish lifecycle around it."""

from __future__ import annotations

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ExperimentSpec,
    assemble_run,
    finish_run,
    run_spec,
)


def _cheap_config(seed=13):
    return default_config(
        seed=seed,
        scale=WorkloadScaleConfig(period_seconds=40.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=15.0),
        planner=PlannerConfig(control_interval=20.0),
    )


def test_spec_defaults():
    spec = ExperimentSpec()
    assert spec.controller == "qs"
    assert spec.backend == "sim"
    assert spec.backend_options == {}
    assert spec.invariants == "off"
    assert spec.horizon is None


def test_with_overrides_returns_new_spec():
    spec = ExperimentSpec(controller="none", invariants="warn")
    other = spec.with_overrides(controller="qs")
    assert other.controller == "qs"
    assert other.invariants == "warn"  # untouched fields carried over
    assert spec.controller == "none"  # original unchanged


def test_manual_lifecycle_in_slices_equals_run_spec():
    """assemble -> run (sliced) -> finish is exactly what run_spec does."""
    spec = ExperimentSpec(controller="qs", config=_cheap_config(), tracing=True)
    whole = run_spec(spec)
    sliced = assemble_run(spec)
    for end in (7.5, 33.0, sliced.schedule.horizon):
        sliced.bundle.run(horizon=end)
    assert finish_run(sliced) is sliced
    assert sliced.goal_attainment() == whole.goal_attainment()
    assert sliced.performance_series() == whole.performance_series()
    assert (
        sliced.bundle.engine.completed_queries
        == whole.bundle.engine.completed_queries
    )
    assert sorted(sliced.extras) == sorted(whole.extras)
    assert sliced.extras["tracer"].balanced
    assert len(sliced.extras["tracer"].spans) == len(whole.extras["tracer"].spans)


def test_failed_assembly_closes_the_backend(monkeypatch):
    from repro.errors import SchedulingError
    from repro.faults import ScheduledFault
    from repro.dbms.engine import DatabaseEngine

    closed = []
    monkeypatch.setattr(DatabaseEngine, "close", lambda self: closed.append(self))
    spec = ExperimentSpec(
        controller="none",
        config=_cheap_config(),
        faults=(ScheduledFault(kind="no_such_fault"),),
    )
    with pytest.raises(SchedulingError):
        assemble_run(spec)
    assert len(closed) == 1


def test_unknown_backend_in_spec_rejected():
    with pytest.raises(ConfigurationError):
        run_spec(ExperimentSpec(config=_cheap_config(), backend="postgres"))
