"""Tests for the sharded coordinator: both modes, determinism, invariants."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.shard import ShardedExperimentSpec, run_sharded
from repro.workloads.schedule import constant_schedule


def tiny_config():
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )


def tiny_base(controller="qs", invariants="strict"):
    return ExperimentSpec(
        controller=controller,
        config=tiny_config(),
        schedule=constant_schedule(20.0, 2, {"class1": 4, "class2": 4, "class3": 12}),
        invariants=invariants,
    )


def test_single_shard_matches_unsharded_run_bitwise():
    base = tiny_base()
    direct = run_spec(base)
    sharded = run_sharded(ShardedExperimentSpec(base=base, shards=1))
    assert len(sharded.summaries) == 1
    summary = sharded.summaries[0]
    assert summary.total_completions == direct.collector.total_completions
    assert summary.attainment == direct.goal_attainment()
    assert summary.performance_series == direct.performance_series()
    assert summary.class_completions == direct.collector.completions_by_class()


def test_single_shard_lockstep_matches_one_run():
    """Sliced lockstep over the shared assembly == one run_spec call."""
    from repro.experiments.parallel import summarize_result

    base = tiny_base()
    direct = summarize_result(run_spec(base))
    sharded = run_sharded(
        ShardedExperimentSpec(base=base, shards=1, rebalance="interval")
    )
    assert sharded.ok
    (summary,) = sharded.summaries
    assert summary.attainment == direct.attainment
    assert summary.performance_series == direct.performance_series
    assert summary.class_completions == direct.class_completions
    assert summary.total_completions == direct.total_completions
    assert len(summary.telemetry_records) == len(direct.telemetry_records)


def test_lockstep_honours_tracing_and_scheduled_faults(monkeypatch):
    """The shared assembly gives interval mode what a single run has."""
    from repro.faults import ScheduledFault
    from repro.shard import coordinator

    finished = []

    def recording_finish(run):
        finished.append(coordinator_finish(run))
        return finished[-1]

    coordinator_finish = coordinator.finish_run
    monkeypatch.setattr(coordinator, "finish_run", recording_finish)
    base = tiny_base().with_overrides(
        tracing=True,
        faults=(
            ScheduledFault(
                kind="cancel_storm", at=12.0, params={"class_name": "class1"}
            ),
        ),
    )
    result = run_sharded(
        ShardedExperimentSpec(base=base, shards=2, rebalance="interval")
    )
    assert result.ok
    assert len(finished) == 2
    for shard_result in finished:
        tracer = shard_result.extras["tracer"]
        assert tracer.spans and tracer.balanced
        assert tracer.validate() == []
        injected = shard_result.extras["faults"].injected
        assert [entry["fault"] for entry in injected] == ["cancel_storm"]
        assert injected[0]["time"] == 12.0
        assert shard_result.extras["validation"].violations == []


def test_static_mode_worker_count_never_changes_results():
    spec = ShardedExperimentSpec(base=tiny_base(), shards=2, router="hash")
    serial = run_sharded(spec, jobs=1)
    parallel = run_sharded(spec, jobs=2)
    for left, right in zip(serial.summaries, parallel.summaries):
        assert left.attainment == right.attainment
        assert left.total_completions == right.total_completions
        assert left.class_completions == right.class_completions
        assert left.performance_series == right.performance_series
    assert serial.report.attainment == parallel.report.attainment
    assert serial.final_cost_limits == parallel.final_cost_limits


def test_global_invariants_hold_on_clean_run():
    result = run_sharded(
        ShardedExperimentSpec(base=tiny_base(), shards=3, router="least-loaded")
    )
    assert result.ok
    assert result.report.ok
    assert result.report.violations == []
    assert sum(result.final_cost_limits) == tiny_config().system_cost_limit


def test_report_merges_all_shards():
    result = run_sharded(
        ShardedExperimentSpec(base=tiny_base(), shards=2, router="cost-aware")
    )
    assert result.report.shards == 2
    assert result.report.total_completions == sum(
        s.total_completions for s in result.summaries
    )
    assert len(result.report.per_shard) == 2
    assert result.report.per_shard[0].seed == 7
    assert result.report.per_shard[1].seed == 1007


def test_interval_rebalance_runs_and_conserves_budget():
    spec = ShardedExperimentSpec(
        base=tiny_base(), shards=2, router="cost-aware", rebalance="interval"
    )
    result = run_sharded(spec, jobs=1)
    assert result.ok
    assert sum(result.final_cost_limits) == pytest.approx(
        tiny_config().system_cost_limit
    )
    assert result.report.total_completions > 0


def test_interval_rebalance_requires_serial_execution():
    spec = ShardedExperimentSpec(
        base=tiny_base(), shards=2, rebalance="interval"
    )
    with pytest.raises(ConfigurationError, match="jobs=1"):
        run_sharded(spec, jobs=2)


def test_interval_rebalance_requires_query_scheduler():
    spec = ShardedExperimentSpec(
        base=tiny_base(controller="none", invariants="off"),
        shards=2,
        rebalance="interval",
    )
    with pytest.raises(ConfigurationError, match="Query Scheduler"):
        run_sharded(spec, jobs=1)


def test_interval_rebalance_is_deterministic():
    spec = ShardedExperimentSpec(
        base=tiny_base(), shards=2, rebalance="interval"
    )
    first = run_sharded(spec, jobs=1)
    second = run_sharded(spec, jobs=1)
    assert first.final_cost_limits == second.final_cost_limits
    for left, right in zip(first.summaries, second.summaries):
        assert left.attainment == right.attainment
        assert left.total_completions == right.total_completions


def test_sharded_sweep_smoke():
    """2 shards x 3 swept seeds through the parallel fan-out (jobs=2)."""
    from repro.experiments.parallel import RunRequest, run_requests

    spec = ShardedExperimentSpec(base=tiny_base(), shards=2)
    requests = []
    for seed in (1, 2, 3):
        for index, shard_spec in enumerate(spec.shard_specs()):
            requests.append(
                RunRequest(
                    label="seed={}:shard{:02d}".format(seed, index),
                    spec=shard_spec.with_overrides(
                        config=shard_spec.config.with_updates(seed=seed + index * 1000)
                    ),
                )
            )
    labels = [r.describe() for r in requests]
    assert len(set(labels)) == len(labels)
    outcomes = run_requests(requests, jobs=2)
    assert [o.index for o in outcomes] == list(range(len(requests)))
    assert all(o.ok for o in outcomes)


def dropping_report(monkeypatch, dropped=5):
    """Make the merged report lose ``dropped`` class3 completions."""
    from repro.shard import coordinator

    build = coordinator.build_sharded_report

    def lossy_build(**kwargs):
        report = build(**kwargs)
        report.completions["class3"] -= dropped
        report.total_completions -= dropped
        return report

    monkeypatch.setattr(coordinator, "build_sharded_report", lossy_build)


def test_completion_conservation_checks_the_merged_report(monkeypatch):
    dropping_report(monkeypatch)
    result = run_sharded(
        ShardedExperimentSpec(base=tiny_base(invariants="warn"), shards=2)
    )
    assert not result.ok
    names = [violation.name for violation in result.violations]
    assert names == ["shard_completion_conservation"] * 2
    assert result.report.violations == result.violations
    shard_total = sum(summary.total_completions for summary in result.summaries)
    assert result.report.total_completions == shard_total - 5


def test_lost_completions_raise_in_strict_mode(monkeypatch):
    from repro.errors import InvariantViolation

    dropping_report(monkeypatch)
    with pytest.raises(InvariantViolation, match="shard_completion_conservation"):
        run_sharded(ShardedExperimentSpec(base=tiny_base(), shards=2))
