"""The sharded experiment description and its compilation to shard specs.

A :class:`ShardedExperimentSpec` wraps one base
:class:`~repro.experiments.runner.ExperimentSpec` and says how to scale
it out: how many engine shards, which routing policy spreads the client
sessions, and how the global system cost limit is partitioned.  Each
shard compiles to a complete, independently runnable ``ExperimentSpec``
— its own backend, Query Patroller, controller stack, schedule slice,
seed, and cost-limit share — so the existing single-deployment run path
(and every guarantee it carries) is reused unchanged per shard.

Determinism contract: per-shard seeds are ``base_seed + i * seed_stride``
(shard 0 keeps the base seed), routing is deterministic, and the cost
split is deterministic, so the same sharded spec always produces the
same shard specs.  With ``shards == 1`` the base spec is returned
*unchanged* — no schedule resolution or partition round-trip — so a
one-shard run is bit-identical to the unsharded run and stays pinned by
the existing golden data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.config import default_config
from repro.core.service_class import ServiceClass, paper_classes
from repro.core.solver import min_class_units
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSpec, default_schedule
from repro.shard.router import (
    ROUTER_NAMES,
    make_router,
    partition_schedule,
    routed_demand,
)
from repro.workloads.schedule import PeriodSchedule
from repro.workloads.tpcc import tpcc_mix
from repro.workloads.tpch import tpch_mix

#: Cost-limit rebalancing modes: ``"static"`` splits the global limit
#: once up front (shards may then run in parallel worker processes);
#: ``"interval"`` re-splits every control interval from live demand
#: (lockstep, in-process, ``jobs=1`` only).
REBALANCE_MODES = ("static", "interval")

#: Default seed distance between adjacent shards' RNG streams.
DEFAULT_SEED_STRIDE = 1000


def default_class_weights(classes: Sequence[ServiceClass]) -> Dict[str, float]:
    """Relative per-client resource demand of each class.

    The cost-aware router's (and the cost splitter's) weight signal: the
    weighted mean template demand (CPU + IO) of the class's workload mix
    — OLAP classes draw from the TPC-H mix, OLTP classes from TPC-C,
    mirroring :func:`~repro.experiments.runner.build_bundle`'s mix
    assignment.
    """
    olap = tpch_mix()
    oltp = tpcc_mix()
    weights: Dict[str, float] = {}
    for service_class in classes:
        mix = olap if service_class.kind == "olap" else oltp
        total_weight = sum(t.weight for t in mix.templates)
        weights[service_class.name] = sum(
            t.weight * (t.cpu_demand + t.io_demand) for t in mix.templates
        ) / total_weight
    return weights


def split_cost_limit(
    total: float, demands: Sequence[float], floor: float
) -> List[float]:
    """Partition a global cost limit proportionally to per-shard demand.

    Every shard gets at least ``floor`` (the solver's per-deployment
    minimum — below it the per-shard :class:`PerformanceSolver` cannot
    give every class its ``min_class_limit``); the remainder is spread
    proportionally to ``demands`` (equally when total demand is zero).
    The returned shares sum *exactly* to ``total`` — the last share is
    pinned to the remainder so float error can never break the
    cost-partition invariant.
    """
    count = len(demands)
    if count < 1:
        raise ConfigurationError("cost split needs at least one shard")
    if total < floor * count:
        raise ConfigurationError(
            "system cost limit {:g} cannot give {} shards their minimum of "
            "{:g} timerons each (needs >= {:g}); raise the scenario's "
            "control.system_cost_limit or reduce the shard count".format(
                total, count, floor, floor * count
            )
        )
    spare = total - floor * count
    total_demand = float(sum(demands))
    if total_demand > 0:
        shares = [floor + spare * d / total_demand for d in demands]
    else:
        shares = [floor + spare / count for _ in demands]
    shares[-1] = total - sum(shares[:-1])
    return shares


@dataclass
class ShardedExperimentSpec:
    """One sharded deployment, as data.

    ``base`` describes what every shard runs (controller, backend,
    invariant mode, configuration); the sharding fields describe how the
    fleet is laid out.  :meth:`shard_specs` compiles to one
    ``ExperimentSpec`` per shard.
    """

    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    shards: int = 1
    router: str = "hash"
    rebalance: str = "static"
    seed_stride: int = DEFAULT_SEED_STRIDE

    def validate(self) -> "ShardedExperimentSpec":
        """Structural validation; returns ``self`` for chaining."""
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) or self.shards < 1:
            raise ConfigurationError(
                "shards must be a positive integer, got {!r}".format(self.shards)
            )
        if self.router not in ROUTER_NAMES:
            raise ConfigurationError(
                "unknown router {!r}; expected one of {}".format(
                    self.router, ROUTER_NAMES
                )
            )
        if self.rebalance not in REBALANCE_MODES:
            raise ConfigurationError(
                "unknown rebalance mode {!r}; expected one of {}".format(
                    self.rebalance, REBALANCE_MODES
                )
            )
        if not isinstance(self.seed_stride, int) or self.seed_stride < 1:
            raise ConfigurationError(
                "seed_stride must be a positive integer, got {!r}".format(
                    self.seed_stride
                )
            )
        if self.shards > 1:
            # Compile eagerly: surfaces an under-provisioned cost limit
            # (or any schedule/partition problem) at validation time.
            self.shard_specs()
        return self

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def resolved_classes(self) -> List[ServiceClass]:
        """The service classes every shard runs."""
        if self.base.classes is not None:
            return list(self.base.classes)
        return list(paper_classes())

    def resolved_schedule(self) -> PeriodSchedule:
        """The *global* schedule before partitioning (backend-aware)."""
        if self.base.schedule is not None:
            return self.base.schedule
        config = (self.base.config or default_config()).validate()
        return default_schedule(config, self.resolved_classes(), self.base.backend)

    def cost_floor(self) -> float:
        """Minimum viable per-shard cost limit.

        Each shard runs its own solver over all classes, and the solver
        refuses a limit that cannot give every class its
        :func:`min_class_units`; a shard gives each class at least one.
        """
        config = (self.base.config or default_config()).validate()
        grid = config.planner.grid_timerons
        units = max(min_class_units(config.planner.min_class_limit, grid), 1)
        return units * grid * len(self.resolved_classes())

    def shard_schedules(self) -> List[PeriodSchedule]:
        """The routed per-shard schedules (global schedule for 1 shard)."""
        schedule = self.resolved_schedule()
        if self.shards == 1:
            return [schedule]
        router = make_router(
            self.router, default_class_weights(self.resolved_classes())
        )
        return partition_schedule(schedule, self.shards, router)

    def shard_cost_limits(self) -> List[float]:
        """Static per-shard cost-limit shares (sum exactly to the global)."""
        config = (self.base.config or default_config()).validate()
        if self.shards == 1:
            return [config.system_cost_limit]
        weights = default_class_weights(self.resolved_classes())
        demands = routed_demand(self.shard_schedules(), weights)
        return split_cost_limit(
            config.system_cost_limit, demands, self.cost_floor()
        )

    def shard_specs(self) -> List[ExperimentSpec]:
        """One complete, runnable ``ExperimentSpec`` per shard.

        With ``shards == 1`` the base spec is returned unchanged (the
        bit-identity guarantee).  Otherwise shard ``i`` gets the routed
        schedule slice, seed ``base_seed + i * seed_stride``, and its
        static cost-limit share.
        """
        if self.shards == 1:
            return [self.base]
        config = (self.base.config or default_config()).validate()
        schedules = self.shard_schedules()
        limits = self.shard_cost_limits()
        classes = self.resolved_classes()
        specs: List[ExperimentSpec] = []
        for index in range(self.shards):
            shard_config = config.with_updates(
                seed=config.seed + index * self.seed_stride,
                system_cost_limit=limits[index],
            )
            specs.append(
                self.base.with_overrides(
                    config=shard_config,
                    schedule=schedules[index],
                    classes=list(classes),
                )
            )
        return specs

    def with_overrides(self, **changes) -> "ShardedExperimentSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
