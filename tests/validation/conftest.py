"""Shared fixtures for the validation-harness tests."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import build_bundle, make_controller
from repro.workloads.schedule import constant_schedule


def small_config(
    seed=7, period_seconds=30.0, num_periods=2, control_interval=10.0, model="paper"
):
    """A config small enough for sub-second full runs."""
    return default_config(
        seed=seed,
        scale=WorkloadScaleConfig(
            period_seconds=period_seconds, num_periods=num_periods
        ),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=control_interval, model=model),
    )


def make_qs_bundle(seed=7, period_seconds=30.0, num_periods=2, model="paper"):
    """A small assembled bundle with a Query Scheduler attached (not started)."""
    config = small_config(
        seed=seed, period_seconds=period_seconds, num_periods=num_periods, model=model
    )
    schedule = constant_schedule(
        period_seconds, num_periods, {"class1": 2, "class2": 2, "class3": 3}
    )
    bundle = build_bundle(config=config, schedule=schedule)
    make_controller(bundle, "qs")
    return bundle


@pytest.fixture
def qs_bundle():
    return make_qs_bundle()
