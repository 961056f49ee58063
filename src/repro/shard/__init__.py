"""The sharded multi-engine control plane.

Scales the single-deployment control loop out to a fleet: N engine
shards — each a complete execution backend with its own Query Patroller,
Monitor/Planner/Dispatcher stack, and deterministic event loop — under
one global coordinator that routes client sessions across shards
(:mod:`repro.shard.router`), partitions the global system cost limit
(:mod:`repro.shard.spec`), runs the fleet and rebalances
(:mod:`repro.shard.coordinator`), checks cross-shard invariants
(:mod:`repro.shard.invariants`), and merges per-shard results into one
report (:mod:`repro.shard.report`).

Entry points: build a :class:`ShardedExperimentSpec` (or compile one
from a scenario's ``shards:`` block / the ``repro run --shards`` flags)
and hand it to :func:`run_sharded`.
"""

from repro.shard.coordinator import ShardedRunResult, run_sharded
from repro.shard.invariants import (
    check_completion_conservation,
    check_cost_partition,
    check_routing_conservation,
)
from repro.shard.report import (
    ShardedRunReport,
    ShardRow,
    build_sharded_report,
    export_shard_telemetry,
    save_sharded_report,
    shard_path,
    sharded_report_to_dict,
    sharded_tables,
)
from repro.shard.router import (
    ROUTER_NAMES,
    CostAwareRouter,
    HashRouter,
    LeastLoadedRouter,
    Router,
    make_router,
    partition_schedule,
    routed_demand,
)
from repro.shard.spec import (
    DEFAULT_SEED_STRIDE,
    REBALANCE_MODES,
    ShardedExperimentSpec,
    default_class_weights,
    split_cost_limit,
)

__all__ = [
    "DEFAULT_SEED_STRIDE",
    "REBALANCE_MODES",
    "ROUTER_NAMES",
    "CostAwareRouter",
    "HashRouter",
    "LeastLoadedRouter",
    "Router",
    "ShardRow",
    "ShardedExperimentSpec",
    "ShardedRunReport",
    "ShardedRunResult",
    "build_sharded_report",
    "check_completion_conservation",
    "check_cost_partition",
    "check_routing_conservation",
    "default_class_weights",
    "export_shard_telemetry",
    "make_router",
    "partition_schedule",
    "routed_demand",
    "run_sharded",
    "save_sharded_report",
    "shard_path",
    "sharded_report_to_dict",
    "sharded_tables",
    "split_cost_limit",
]
