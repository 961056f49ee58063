"""Tests for multi-seed replication."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.replication import (
    compare,
    comparison_table,
    replicate,
)
from repro.workloads.schedule import constant_schedule


def tiny_config():
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )


def tiny_schedule():
    return constant_schedule(20.0, 2, {"class1": 2, "class2": 2, "class3": 6})


def test_replicate_aggregates_across_seeds():
    summary = replicate(
        "none", seeds=[1, 2, 3], config=tiny_config(), schedule=tiny_schedule()
    )
    assert summary.controller == "none"
    assert summary.seeds == [1, 2, 3]
    for name in ("class1", "class2", "class3"):
        stats = summary.per_class[name]
        assert stats.attainment.count == 3
        assert 0.0 <= stats.attainment.mean <= 1.0
        assert stats.metric_mean.count == 3
        assert stats.completions > 0


def test_weighted_attainment_pools_by_completions():
    """The regression: a 40-query run must not weigh like a 40,000-query run.

    Two runs with attainments 1.0 (10 completions) and 0.0 (990
    completions): mean-of-means says 0.5, the pooled answer is 0.01.
    """
    from repro.experiments.replication import ClassReplicationStats

    stats = ClassReplicationStats("class1")
    stats.add_run(1.0, 10)
    stats.add_run(0.0, 990)
    assert stats.attainment.mean == pytest.approx(0.5)
    assert stats.weighted_attainment == pytest.approx(0.01)
    assert stats.completions == 1000


def test_weighted_attainment_falls_back_without_completions():
    from repro.experiments.replication import ClassReplicationStats

    stats = ClassReplicationStats("class1")
    stats.add_run(0.75, 0)
    stats.add_run(0.25, 0)
    assert stats.weighted_attainment == pytest.approx(0.5)


def test_summary_attainment_mean_is_weighted():
    summary = replicate(
        "none", seeds=[1, 2, 3], config=tiny_config(), schedule=tiny_schedule()
    )
    for name in ("class1", "class2", "class3"):
        assert summary.attainment_mean(name) == pytest.approx(
            summary.per_class[name].weighted_attainment
        )


def test_replicate_requires_seeds():
    with pytest.raises(ValueError):
        replicate("none", seeds=[])


def test_single_seed_has_zero_std():
    summary = replicate(
        "none", seeds=[7], config=tiny_config(), schedule=tiny_schedule()
    )
    assert summary.attainment_std("class3") == 0.0


def test_compare_runs_same_seeds_for_all_controllers():
    summaries = compare(
        ["none", "qs"], seeds=[1, 2],
        config=tiny_config(), schedule=tiny_schedule(),
    )
    assert set(summaries) == {"none", "qs"}
    assert summaries["none"].seeds == summaries["qs"].seeds


def test_format_comparison_table():
    summaries = compare(
        ["none"], seeds=[1], config=tiny_config(), schedule=tiny_schedule()
    )
    text = comparison_table(summaries, ["class1", "class2", "class3"]).text()
    assert "controller" in text
    assert "none" in text
    assert "%" in text
