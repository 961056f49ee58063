"""Tests for the configuration tree."""

import dataclasses

import pytest

from repro.config import (
    MonitorConfig,
    OptimizerConfig,
    OverloadConfig,
    PlannerConfig,
    SimulationConfig,
    WorkloadScaleConfig,
    PAPER_CLASSES,
    default_config,
)
from repro.dbms.engine import CPU_SERVERS, DISK_SERVERS
from repro.errors import ConfigurationError
from repro.experiments.sensitivity import set_config_field

#: Every dotted path an entry point sets (a CLI option, a scenario's
#: ``control:``, a benchmark or an example).  A new field has to be added
#: here on purpose.
KEPT_PATHS = {
    "seed",
    "system_cost_limit",
    "overload.knee_cost",
    "optimizer.noise_sigma",
    "monitor.snapshot_interval",
    "monitor.response_time_window",
    "planner.control_interval",
    "planner.model",
    "planner.utility",
    "planner.allocator",
    "planner.queue_discipline",
    "scale.period_seconds",
    "scale.num_periods",
}

#: Paths the tree once had that nothing set; each value is now a module
#: constant beside the code that reads it.
RETIRED_PATHS = (
    "resources.cpu_servers",
    "resources.disk_servers",
    "resources.cpu_speed",
    "resources.disk_speed",
    "overload.beta",
    "optimizer.cpu_timerons_per_second",
    "optimizer.io_timerons_per_second",
    "optimizer.base_cost",
    "agents.max_agents",
    "patroller.interception_latency",
    "patroller.release_latency",
    "patroller.overhead_cpu_demand",
    "monitor.velocity_window",
    "monitor.max_measurement_age",
    "planner.grid_timerons",
    "planner.min_class_limit",
    "planner.surplus_slope",
    "planner.importance_base",
    "planner.oltp_slope_prior",
    "planner.oltp_target_margin",
    "scale.think_time",
)


def _paths(node, prefix=""):
    """Every settable dotted path under a config dataclass."""
    for item in dataclasses.fields(node):
        value = getattr(node, item.name)
        if dataclasses.is_dataclass(value):
            yield from _paths(value, prefix + item.name + ".")
        else:
            yield prefix + item.name


def test_the_tree_has_exactly_the_thirteen_paths_entry_points_set():
    assert set(_paths(SimulationConfig())) == KEPT_PATHS
    assert len(KEPT_PATHS) == 13


def test_the_retired_sections_are_gone():
    import repro.config

    for name in ("ResourceConfig", "AgentConfig", "PatrollerConfig"):
        assert not hasattr(repro.config, name)


def test_default_config_validates():
    config = default_config()
    assert config.system_cost_limit == 30_000.0


def test_defaults_match_paper_testbed_and_goals():
    """xSeries 240: 2 CPUs, 17 disks; 30K timeron system limit; the three
    Section 4 classes."""
    assert (CPU_SERVERS, DISK_SERVERS) == (2, 17)
    assert default_config().system_cost_limit == 30_000.0
    assert PAPER_CLASSES == (
        ("class1", "olap", 0.40, 1),
        ("class2", "olap", 0.60, 2),
        ("class3", "oltp", 0.25, 3),
    )


def test_config_is_frozen():
    config = default_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 99


def test_with_updates_returns_validated_copy():
    config = default_config()
    updated = config.with_updates(system_cost_limit=40_000.0)
    assert updated.system_cost_limit == 40_000.0
    assert config.system_cost_limit == 30_000.0
    with pytest.raises(ConfigurationError):
        config.with_updates(system_cost_limit=-1.0)


def test_scale_horizon():
    scale = WorkloadScaleConfig(period_seconds=100.0, num_periods=18)
    assert scale.horizon == 1800.0


@pytest.mark.parametrize(
    "section,kwargs",
    [
        (OverloadConfig, dict(knee_cost=0.0)),
        (OptimizerConfig, dict(noise_sigma=-1.0)),
        (MonitorConfig, dict(snapshot_interval=0.0)),
        (MonitorConfig, dict(response_time_window=0.0)),
        (PlannerConfig, dict(control_interval=0.0)),
        (PlannerConfig, dict(utility="quadratic")),
        (WorkloadScaleConfig, dict(period_seconds=0.0)),
        (WorkloadScaleConfig, dict(num_periods=0)),
    ],
)
def test_invalid_sections_rejected(section, kwargs):
    with pytest.raises(ConfigurationError):
        section(**kwargs).validate()


def _numeric_paths():
    """Dotted paths of every numeric field in the tree, bar ``seed`` (an
    identity, not a range: the scenario loader checks it is an integer)."""
    config = SimulationConfig()
    return [
        path
        for path in _paths(config)
        if path != "seed" and type(_value(config, path)) in (int, float)
    ]


def _value(config, path):
    for name in path.split("."):
        config = getattr(config, name)
    return config


@pytest.mark.parametrize("path", _numeric_paths() + list(RETIRED_PATHS))
def test_nan_fails_every_range_check(path):
    """A NaN cannot reach a run through any path the tree has or had: a
    live path's range check refuses it, a retired path is unknown."""
    with pytest.raises(ConfigurationError):
        set_config_field(SimulationConfig(), path, float("nan"))


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        SimulationConfig(seed=seed).validate()


@pytest.mark.parametrize("interval", [float("nan"), float("inf"), 0.0])
def test_control_interval_must_be_positive_and_finite(interval):
    with pytest.raises(ConfigurationError, match="control_interval"):
        PlannerConfig(control_interval=interval).validate()


@pytest.mark.parametrize("seconds", [float("inf"), float("nan"), 0.0, -1.0])
def test_period_seconds_must_be_positive_and_finite(seconds):
    # inf used to pass and then fail as "cannot schedule event ... at nan".
    with pytest.raises(ConfigurationError, match="period_seconds"):
        WorkloadScaleConfig(period_seconds=seconds).validate()


def test_a_bad_control_interval_is_named_before_the_windows_derived_from_it():
    config = SimulationConfig(
        monitor=MonitorConfig(response_time_window=float("nan")),
        planner=PlannerConfig(control_interval=float("nan")),
    )
    with pytest.raises(ConfigurationError, match="control_interval"):
        config.validate()


def test_invalid_section_rejected_through_tree():
    config = SimulationConfig(planner=PlannerConfig(control_interval=-5.0))
    with pytest.raises(ConfigurationError):
        config.validate()


def test_nonpositive_system_limit_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(system_cost_limit=0.0).validate()
