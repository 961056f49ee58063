"""Tests for the configuration tree."""

import dataclasses

import pytest

from repro.config import (
    AgentConfig,
    MonitorConfig,
    OptimizerConfig,
    OverloadConfig,
    PatrollerConfig,
    PlannerConfig,
    ResourceConfig,
    SimulationConfig,
    WorkloadScaleConfig,
    PAPER_CLASSES,
    default_config,
)
from repro.errors import ConfigurationError


def test_default_config_validates():
    config = default_config()
    assert config.system_cost_limit == 30_000.0
    assert config.resources.cpu_servers == 2
    assert config.resources.disk_servers == 17


def test_defaults_match_paper_testbed_and_goals():
    """xSeries 240: 2 CPUs, 17 disks; 30K timeron system limit; the three
    Section 4 classes."""
    config = default_config()
    assert config.resources.cpu_servers == 2
    assert config.resources.disk_servers == 17
    assert config.system_cost_limit == 30_000.0
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


def test_overload_efficiency_shape():
    overload = OverloadConfig(knee_cost=10_000.0, beta=1.0)
    assert overload.efficiency(5_000.0) == 1.0
    assert overload.efficiency(20_000.0) == pytest.approx(0.5)


def test_optimizer_true_cost():
    optimizer = OptimizerConfig(
        cpu_timerons_per_second=10.0, io_timerons_per_second=5.0, base_cost=2.0
    )
    assert optimizer.true_cost(1.0, 2.0) == pytest.approx(2.0 + 10.0 + 10.0)


@pytest.mark.parametrize(
    "section,kwargs",
    [
        (ResourceConfig, dict(cpu_servers=0)),
        (ResourceConfig, dict(cpu_speed=0.0)),
        (OverloadConfig, dict(knee_cost=0.0)),
        (OverloadConfig, dict(beta=-1.0)),
        (OptimizerConfig, dict(noise_sigma=-1.0)),
        (AgentConfig, dict(max_agents=0)),
        (PatrollerConfig, dict(interception_latency=-1.0)),
        (MonitorConfig, dict(snapshot_interval=0.0)),
        (MonitorConfig, dict(velocity_window=0.0)),
        (MonitorConfig, dict(response_time_window=0.0)),
        (PlannerConfig, dict(control_interval=0.0)),
        (PlannerConfig, dict(grid_timerons=0.0)),
        (PlannerConfig, dict(min_class_limit=-1.0)),
        (PlannerConfig, dict(utility="quadratic")),
        (PlannerConfig, dict(importance_base=0.5)),
        (PlannerConfig, dict(oltp_target_margin=0.0)),
        (PlannerConfig, dict(oltp_slope_prior=0.001)),
        (WorkloadScaleConfig, dict(period_seconds=0.0)),
        (WorkloadScaleConfig, dict(num_periods=0)),
        (WorkloadScaleConfig, dict(think_time=-1.0)),
        (PlannerConfig, dict(surplus_slope=-1.0)),
    ],
)
def test_invalid_sections_rejected(section, kwargs):
    with pytest.raises(ConfigurationError):
        section(**kwargs).validate()


def _numeric_paths():
    """Dotted paths of every numeric field in the tree, bar ``seed`` (an
    identity, not a range: the scenario loader checks it is an integer)."""
    config = SimulationConfig()
    paths = []
    for outer in dataclasses.fields(config):
        value = getattr(config, outer.name)
        if dataclasses.is_dataclass(value):
            paths += [
                "{}.{}".format(outer.name, inner.name)
                for inner in dataclasses.fields(value)
                if type(getattr(value, inner.name)) in (int, float)
            ]
        elif type(value) in (int, float) and outer.name != "seed":
            paths.append(outer.name)
    return paths


@pytest.mark.parametrize("path", _numeric_paths())
def test_nan_fails_every_range_check(path):
    section, _, name = path.rpartition(".")
    config = SimulationConfig()
    if section:
        nan_section = dataclasses.replace(getattr(config, section), **{name: float("nan")})
        config = dataclasses.replace(config, **{section: nan_section})
    else:
        config = dataclasses.replace(config, **{name: float("nan")})
    with pytest.raises(ConfigurationError):
        config.validate()


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        SimulationConfig(seed=seed).validate()


@pytest.mark.parametrize("interval", [float("nan"), float("inf"), 0.0])
def test_control_interval_must_be_positive_and_finite(interval):
    with pytest.raises(ConfigurationError, match="control_interval"):
        PlannerConfig(control_interval=interval).validate()


@pytest.mark.parametrize("field", ["cpu_speed", "disk_speed"])
def test_resource_speeds_must_be_finite(field):
    # inf used to pass and then stall the pool it built (every wake-up at
    # t = 0, no completion).
    with pytest.raises(ConfigurationError, match="finite"):
        ResourceConfig(**{field: float("inf")}).validate()


@pytest.mark.parametrize(
    "field, servers",
    [("cpu_servers", 1.5), ("disk_servers", 2.7), ("cpu_servers", True),
     ("cpu_servers", float("inf"))],
)
def test_server_counts_must_be_integers(field, servers):
    # 1.5 and 2.7 used to pass and run int(servers) servers, True one
    # server, and inf to pass and then fail in int(inf) with OverflowError.
    with pytest.raises(ConfigurationError, match=field):
        ResourceConfig(**{field: servers}).validate()


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
