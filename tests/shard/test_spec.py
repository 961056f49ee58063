"""Tests for the sharded experiment spec and cost-limit partitioning."""

from dataclasses import replace

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.planner import make_solver
from repro.core.service_class import paper_classes
from repro.core.solver import MIN_CLASS_LIMIT, ClassStatus
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSpec
from repro.shard.spec import (
    ShardedExperimentSpec,
    default_class_weights,
    split_cost_limit,
)
from repro.workloads.schedule import constant_schedule


def tiny_config(**updates):
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    return config.with_updates(**updates) if updates else config


def tiny_base():
    return ExperimentSpec(
        controller="qs",
        config=tiny_config(),
        schedule=constant_schedule(20.0, 2, {"class1": 4, "class2": 4, "class3": 12}),
    )


class TestSplitCostLimit:
    def test_shares_sum_exactly_to_total(self):
        shares = split_cost_limit(30_000.0, [1.0, 2.0, 4.0], 3_000.0)
        assert sum(shares) == 30_000.0
        assert all(share >= 3_000.0 for share in shares)

    def test_proportional_to_demand_above_floor(self):
        shares = split_cost_limit(10_000.0, [1.0, 3.0], 2_000.0)
        # 6000 spare split 1:3.
        assert shares[0] == pytest.approx(3_500.0)
        assert shares[1] == pytest.approx(6_500.0)

    def test_zero_demand_splits_equally(self):
        shares = split_cost_limit(9_000.0, [0.0, 0.0, 0.0], 1_000.0)
        assert shares == [3_000.0, 3_000.0, 3_000.0]

    def test_underprovisioned_total_raises(self):
        with pytest.raises(ConfigurationError, match="cannot give"):
            split_cost_limit(5_000.0, [1.0, 1.0], 3_000.0)


class TestShardedExperimentSpec:
    def test_single_shard_returns_base_unchanged(self):
        base = tiny_base()
        spec = ShardedExperimentSpec(base=base, shards=1).validate()
        specs = spec.shard_specs()
        # Identity, not a copy: the unsharded run path must be untouched
        # so single-shard runs stay pinned by the existing golden data.
        assert specs == [base]
        assert specs[0] is base

    def test_shard_seeds_stride(self):
        spec = ShardedExperimentSpec(base=tiny_base(), shards=3)
        seeds = [s.config.seed for s in spec.shard_specs()]
        assert seeds == [7, 1007, 2007]

    def test_shard_zero_keeps_base_seed(self):
        spec = ShardedExperimentSpec(base=tiny_base(), shards=2, seed_stride=5)
        assert spec.shard_specs()[0].config.seed == 7

    def test_cost_limits_partition_global_exactly(self):
        spec = ShardedExperimentSpec(base=tiny_base(), shards=4, router="cost-aware")
        limits = [s.config.system_cost_limit for s in spec.shard_specs()]
        assert sum(limits) == tiny_config().system_cost_limit
        assert min(limits) >= spec.cost_floor()

    def test_cost_floor_is_a_limit_the_shard_solver_accepts(self):
        # One MIN_CLASS_LIMIT (one 1,000-timeron grid unit) per class.
        base = tiny_base()
        spec = ShardedExperimentSpec(base=base, shards=2)
        assert spec.cost_floor() == 3 * MIN_CLASS_LIMIT
        solver = make_solver(replace(base.config, system_cost_limit=spec.cost_floor()))
        plan = solver.solve([ClassStatus(c, 5_000.0, None) for c in paper_classes()])
        assert min(plan.as_dict().values()) >= MIN_CLASS_LIMIT

    def test_schedules_partition_global_exactly(self):
        spec = ShardedExperimentSpec(base=tiny_base(), shards=3, router="hash")
        shards = [s.schedule for s in spec.shard_specs()]
        base_schedule = tiny_base().schedule
        for name, series in base_schedule.counts.items():
            for period, count in enumerate(series):
                assert sum(s.counts[name][period] for s in shards) == count

    def test_underprovisioned_limit_raises_at_validate(self):
        # 16 shards x 3 classes x 1000 timerons = 48k floor > 30k default.
        spec = ShardedExperimentSpec(base=tiny_base(), shards=16)
        with pytest.raises(ConfigurationError, match="system cost limit"):
            spec.validate()

    def test_rejects_unknown_router(self):
        with pytest.raises(ConfigurationError, match="router"):
            ShardedExperimentSpec(base=tiny_base(), shards=2, router="nope").validate()

    def test_rejects_unknown_rebalance(self):
        with pytest.raises(ConfigurationError, match="rebalance"):
            ShardedExperimentSpec(
                base=tiny_base(), shards=2, rebalance="hourly"
            ).validate()

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ConfigurationError, match="shards"):
            ShardedExperimentSpec(base=tiny_base(), shards=0).validate()

    def test_rejects_bad_seed_stride(self):
        with pytest.raises(ConfigurationError, match="seed_stride"):
            ShardedExperimentSpec(
                base=tiny_base(), shards=2, seed_stride=0
            ).validate()

    def test_compilation_is_deterministic(self):
        spec = ShardedExperimentSpec(base=tiny_base(), shards=3, router="cost-aware")
        first = spec.shard_specs()
        second = spec.shard_specs()
        assert [s.config.seed for s in first] == [s.config.seed for s in second]
        assert [s.schedule.counts for s in first] == [s.schedule.counts for s in second]
        assert [s.config.system_cost_limit for s in first] == [
            s.config.system_cost_limit for s in second
        ]


def test_default_class_weights_rank_olap_above_oltp():
    from repro.core.service_class import paper_classes

    weights = default_class_weights(paper_classes())
    # TPC-H templates are orders of magnitude heavier than TPC-C's.
    assert weights["class1"] > weights["class3"]
    assert weights["class1"] == weights["class2"]
