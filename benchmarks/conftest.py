"""Shared fixtures for the paper-claims suite.

Every bench regenerates one of the paper's tables/figures and *prints* the
rows the paper reports (through pytest's capture so they appear in the
tee'd log), then asserts the shape claims.  Nothing here is timed: how
fast the code runs is measured by ``perf/run.py`` alone.
"""

from __future__ import annotations

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)


@pytest.fixture
def report(request):
    """Print through pytest's output capture (visible in the bench log)."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _print(text: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(text, flush=True)
        else:  # pragma: no cover - capture plugin always present under pytest
            print(text, flush=True)

    return _print


@pytest.fixture
def paper_config():
    """The full-fidelity configuration for the Figure 4-7 runs."""
    return default_config()


@pytest.fixture
def ablation_config():
    """A lighter configuration (half-length periods, 9 of 18 periods)
    for the ablation sweeps, which each run several experiments."""
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=120.0, num_periods=9),
        monitor=MonitorConfig(snapshot_interval=10.0, response_time_window=60.0),
        planner=PlannerConfig(control_interval=60.0),
    )
