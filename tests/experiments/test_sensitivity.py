"""Tests for the generic configuration sensitivity sweep."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.errors import ConfigurationError
from repro.experiments.sensitivity import (
    sweep_table,
    set_config_field,
    sweep,
)
from repro.workloads.schedule import constant_schedule


def tiny_config():
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )


class TestFieldAccess:
    def test_set_top_level(self):
        config = set_config_field(default_config(), "system_cost_limit", 42_000.0)
        assert config.system_cost_limit == 42_000.0

    def test_set_nested(self):
        config = set_config_field(default_config(), "planner.control_interval", 37.0)
        assert config.planner.control_interval == 37.0
        # Original untouched (frozen dataclasses).
        assert default_config().planner.control_interval != 37.0

    def test_set_deep_nested_validates(self):
        with pytest.raises(ConfigurationError):
            set_config_field(default_config(), "overload.knee_cost", -5.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            set_config_field(default_config(), "planner.warp_speed", 9)
        with pytest.raises(ConfigurationError):
            set_config_field(default_config(), "no_such_section.x", 1)
        with pytest.raises(ConfigurationError):
            set_config_field(default_config(), "planner..bad", 1)


class TestSweep:
    def test_sweep_runs_per_value_in_order(self):
        schedule = constant_schedule(20.0, 2, {"class1": 2, "class2": 2, "class3": 5})
        results = sweep(
            "optimizer.noise_sigma",
            [0.0, 0.4],
            controller="none",
            config=tiny_config(),
            schedule=schedule,
        )
        assert [value for value, _ in results] == [0.0, 0.4]
        for _, attainment in results:
            assert set(attainment) == {"class1", "class2", "class3"}

    def test_sweep_duplicate_values_keep_separate_entries(self):
        schedule = constant_schedule(20.0, 2, {"class1": 2, "class2": 2, "class3": 5})
        results = sweep(
            "optimizer.noise_sigma",
            [0.2, 0.2],
            controller="none",
            config=tiny_config(),
            schedule=schedule,
        )
        assert [value for value, _ in results] == [0.2, 0.2]
        # Same config, same seed: the duplicate entries agree but both exist.
        assert results[0][1] == results[1][1]

    def test_sweep_requires_values(self):
        with pytest.raises(ConfigurationError):
            sweep("seed", [], config=tiny_config())

    def test_sweep_rejects_bad_value_before_running(self):
        with pytest.raises(ConfigurationError):
            sweep("optimizer.noise_sigma", [0.1, -1.0], config=tiny_config())

    def test_format_sweep_table(self):
        results = [(10.0, {"a": 0.5, "b": 1.0}), (20.0, {"a": 0.75, "b": 0.25})]
        text = sweep_table("some.path", results, ["a", "b"]).text()
        assert "some.path" in text
        assert "50%" in text and "75%" in text
        missing = sweep_table("p", [(1, {"a": 0.5})], ["a", "zz"]).text()
        assert "-" in missing

    def test_format_sweep_accepts_unhashable_values(self):
        unhashable = sweep_table("p", [([1, 2], {"a": 0.5})], ["a"]).text()
        assert "[1, 2]" in unhashable


class TestSweepBaseSpec:
    """sweep(base_spec=...) — the scenario path."""

    def _base_spec(self):
        from repro.experiments.runner import ExperimentSpec

        return ExperimentSpec(
            controller="qs",
            config=tiny_config(),
            schedule=constant_schedule(
                20.0, 2, {"class1": 2, "class2": 2, "class3": 6}
            ),
            invariants="warn",
        )

    def test_base_spec_sweeps_the_addressed_field_only(self):
        entries = sweep(
            "optimizer.noise_sigma", [0.1, 0.3], base_spec=self._base_spec()
        )
        assert [value for value, _ in entries] == [0.1, 0.3]
        for _, attainment in entries:
            assert set(attainment) == {"class1", "class2", "class3"}

    def test_keywords_are_shorthand_for_a_plain_base_spec(self):
        """One code path: keywords fold into a spec up front."""
        base = self._base_spec().with_overrides(invariants="off")
        by_keywords = sweep(
            "optimizer.noise_sigma", [0.1, 0.3],
            controller=base.controller, config=base.config,
            schedule=base.schedule,
        )
        assert by_keywords == sweep(
            "optimizer.noise_sigma", [0.1, 0.3], base_spec=base
        )

    def test_base_spec_conflicts_with_bare_keywords(self):
        with pytest.raises(ConfigurationError, match="not both"):
            sweep(
                "optimizer.noise_sigma", [0.1],
                base_spec=self._base_spec(), config=tiny_config(),
            )


class TestSweepSeedRepeats:
    def test_repeated_seed_values_get_unique_labels(self):
        from repro.experiments.sensitivity import _sweep_labels

        labels = _sweep_labels("seed", [7, 7, 7])
        assert len(set(labels)) == 3
        assert labels[0] == "seed=7"
        assert labels[1] == "seed=7#2"
        assert labels[2] == "seed=7#3"

    def test_sweep_same_seed_thrice_returns_three_points_in_order(self):
        from repro.experiments.runner import ExperimentSpec

        schedule = constant_schedule(20.0, 2, {"class1": 2, "class2": 2, "class3": 5})
        base_spec = ExperimentSpec(
            controller="none", config=tiny_config(), schedule=schedule
        )
        results = sweep("seed", [7, 7, 7], base_spec=base_spec)
        assert [value for value, _ in results] == [7, 7, 7]
        # Identical seeds run identical simulations.
        assert results[0][1] == results[1][1] == results[2][1]
