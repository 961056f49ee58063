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

from repro import lazy_exports

_EXPORTS = {
    "DEFAULT_SEED_STRIDE": "repro.shard.spec",
    "REBALANCE_MODES": "repro.shard.spec",
    "ROUTER_NAMES": "repro.shard.router",
    "CostAwareRouter": "repro.shard.router",
    "HashRouter": "repro.shard.router",
    "LeastLoadedRouter": "repro.shard.router",
    "Router": "repro.shard.router",
    "ShardRow": "repro.shard.report",
    "ShardedExperimentSpec": "repro.shard.spec",
    "ShardedRunReport": "repro.shard.report",
    "ShardedRunResult": "repro.shard.coordinator",
    "build_sharded_report": "repro.shard.report",
    "check_completion_conservation": "repro.shard.invariants",
    "check_cost_partition": "repro.shard.invariants",
    "check_routing_conservation": "repro.shard.invariants",
    "default_class_weights": "repro.shard.spec",
    "export_shard_telemetry": "repro.shard.report",
    "make_router": "repro.shard.router",
    "partition_schedule": "repro.shard.router",
    "routed_demand": "repro.shard.router",
    "run_sharded": "repro.shard.coordinator",
    "save_sharded_report": "repro.shard.report",
    "shard_path": "repro.shard.report",
    "sharded_report_to_dict": "repro.shard.report",
    "sharded_tables": "repro.shard.report",
    "split_cost_limit": "repro.shard.spec",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
