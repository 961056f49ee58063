"""Configuration tree for the whole reproduction.

Every tunable of the simulated database server, the Query Patroller
substrate, the workloads, and the Query Scheduler controller lives in a
frozen dataclass here.  The defaults reproduce the paper's setup (scaled in
wall-clock time; see DESIGN.md §4): an IBM xSeries 240-like server (2 CPUs,
17 disks), a 30,000-timeron system cost limit, TPC-H/TPC-C-like workloads,
and the three service classes of Section 4.

Units
-----
* Time is in seconds of simulated wall clock.
* Service demand is in seconds-at-full-speed on the relevant resource pool.
* Cost is in *timerons*, the DB2 optimizer's abstract cost unit; the
  optimizer config defines how demand maps to timerons.

Every range check is written as ``not <in range>`` so that a NaN (YAML's
``.nan``) fails it instead of slipping past every comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ResourceConfig:
    """The database server's hardware, per the paper's testbed."""

    cpu_servers: int = 2
    disk_servers: int = 17
    cpu_speed: float = 1.0
    disk_speed: float = 1.0

    def validate(self) -> None:
        for name, servers in (("cpu", self.cpu_servers), ("disk", self.disk_servers)):
            if isinstance(servers, bool) or not isinstance(servers, int) or servers < 1:
                raise ConfigurationError(
                    "{}_servers must be an integer >= 1, got {!r}".format(name, servers)
                )
        if not (0 < self.cpu_speed < math.inf and 0 < self.disk_speed < math.inf):
            raise ConfigurationError("resource speeds must be positive and finite")


@dataclass(frozen=True)
class OverloadConfig:
    """Thrashing model: efficiency knee past a saturation cost.

    Efficiency is ``1 / (1 + beta * max(0, cost - knee) / knee)`` where
    ``cost`` is the total true timeron cost of all queries in flight.  This
    produces the throughput-vs-cost-limit knee the paper uses to pick the
    system cost limit experimentally (Section 2).
    """

    knee_cost: float = 26_000.0
    beta: float = 1.5

    def validate(self) -> None:
        if not self.knee_cost > 0:
            raise ConfigurationError("overload knee_cost must be positive")
        if not self.beta >= 0:
            raise ConfigurationError("overload beta must be non-negative")

    def efficiency(self, total_cost: float) -> float:
        """Efficiency multiplier for the given total in-flight cost."""
        if total_cost <= self.knee_cost:
            return 1.0
        excess = (total_cost - self.knee_cost) / self.knee_cost
        return 1.0 / (1.0 + self.beta * excess)


@dataclass(frozen=True)
class OptimizerConfig:
    """Cost estimator: true demand -> timerons, with estimation noise.

    ``noise_sigma`` is the standard deviation of the lognormal multiplicative
    error on the estimate ("cost-based resource allocation is somehow
    inaccurate", Section 5); 0 disables noise.
    """

    cpu_timerons_per_second: float = 600.0
    io_timerons_per_second: float = 240.0
    base_cost: float = 25.0
    noise_sigma: float = 0.10

    def validate(self) -> None:
        if not (self.cpu_timerons_per_second > 0 and self.io_timerons_per_second > 0):
            raise ConfigurationError("timeron rates must be positive")
        if not self.base_cost >= 0:
            raise ConfigurationError("base_cost must be non-negative")
        if not self.noise_sigma >= 0:
            raise ConfigurationError("noise_sigma must be non-negative")

    def true_cost(self, cpu_demand: float, io_demand: float) -> float:
        """Exact timeron cost of a query with the given demands."""
        return (
            self.base_cost
            + self.cpu_timerons_per_second * cpu_demand
            + self.io_timerons_per_second * io_demand
        )


@dataclass(frozen=True)
class AgentConfig:
    """DB2-style agent pool: one agent per active statement."""

    max_agents: int = 400

    def validate(self) -> None:
        if not self.max_agents >= 1:
            raise ConfigurationError("max_agents must be >= 1")


@dataclass(frozen=True)
class PatrollerConfig:
    """Query Patroller interception costs.

    ``interception_latency`` is wall-clock added to every intercepted query
    before it becomes eligible for release; ``release_latency`` is added when
    it is released; ``overhead_cpu_demand`` is extra CPU burned on the server
    per intercepted query.  These are what make direct OLTP interception
    impractical (Section 3): they dwarf a sub-second transaction.
    """

    interception_latency: float = 0.20
    release_latency: float = 0.05
    overhead_cpu_demand: float = 0.03

    def validate(self) -> None:
        if not (
            self.interception_latency >= 0
            and self.release_latency >= 0
            and self.overhead_cpu_demand >= 0
        ):
            raise ConfigurationError("patroller overheads must be non-negative")


@dataclass(frozen=True)
class MonitorConfig:
    """Monitor polling and OLTP snapshot sampling (Section 3.3)."""

    snapshot_interval: float = 10.0
    velocity_window: float = 120.0  # seconds of OLAP completions per estimate
    response_time_window: float = 60.0  # seconds of OLTP snapshots per estimate
    #: How long a class's last measurement stays usable as a fallback once
    #: its sample windows run dry.  Past this age the Monitor reports None
    #: instead of feeding the solver an arbitrarily stale value.
    max_measurement_age: float = 300.0

    def validate(self) -> None:
        if not self.snapshot_interval > 0:
            raise ConfigurationError("snapshot_interval must be positive")
        if not self.velocity_window > 0:
            raise ConfigurationError("velocity_window must be positive")
        if not self.response_time_window > 0:
            raise ConfigurationError("response_time_window must be positive")
        if not self.max_measurement_age > 0:
            raise ConfigurationError("max_measurement_age must be positive")


@dataclass(frozen=True)
class PlannerConfig:
    """Control loop of the Scheduling Planner / Performance Solver."""

    control_interval: float = 60.0
    grid_timerons: float = 1_000.0
    min_class_limit: float = 1_000.0
    utility: str = "piecewise"  # piecewise | sigmoid | step
    #: Plan construction strategy: "utility" = the paper's optimization;
    #: "deficit" = the importance-x-deficit heuristic (ablation).
    allocator: str = "utility"
    #: Within-class release ordering: "fifo" (the paper), "sjf"
    #: (cheapest estimated cost first) or "aging" (cost discounted by wait).
    queue_discipline: str = "fifo"
    surplus_slope: float = 0.05
    #: Base of the exponential importance weighting in the utilities (1 =
    #: plain linear importance; see repro.core.utility.effective_weight).
    importance_base: float = 4.0
    #: Slope of the OLTP linear model (seconds of OLTP response time per
    #: timeron of OLTP class limit).  The paper obtains it offline by linear
    #: regression on the Figure 2 experiment; this default matches the
    #: calibration sweep on the default simulated server.
    oltp_slope_prior: float = -4.2e-6
    #: Fraction of the OLTP response-time goal the solver actually aims at
    #: (< 1 leaves control headroom so measurement noise does not park the
    #: class permanently just above its SLO).
    oltp_target_margin: float = 0.92
    #: Performance-model spec for the utility solver: "paper" (the
    #: Section 3.2 analytic pair, the default), "learned" (online RLS
    #: residual model), "learned:<path>" (weights trained by
    #: ``repro train``) or "oracle" (last-value persistence baseline).
    model: str = "paper"

    def validate(self) -> None:
        if not (0 < self.control_interval < math.inf):
            raise ConfigurationError(
                "control_interval must be a positive finite number of seconds, "
                "got {!r}".format(self.control_interval)
            )
        if not self.grid_timerons > 0:
            raise ConfigurationError("grid_timerons must be positive")
        if not self.min_class_limit >= 0:
            raise ConfigurationError("min_class_limit must be non-negative")
        if self.utility not in ("piecewise", "sigmoid", "step"):
            raise ConfigurationError("unknown utility family {!r}".format(self.utility))
        if self.allocator not in ("utility", "deficit"):
            raise ConfigurationError("unknown allocator {!r}".format(self.allocator))
        if self.queue_discipline not in ("fifo", "sjf", "aging"):
            raise ConfigurationError(
                "unknown queue discipline {!r}".format(self.queue_discipline)
            )
        if not self.surplus_slope >= 0:
            raise ConfigurationError("surplus_slope must be non-negative")
        if not self.importance_base >= 1:
            raise ConfigurationError("importance_base must be >= 1")
        if not self.oltp_slope_prior < 0:
            raise ConfigurationError("oltp_slope_prior must be negative")
        if not 0 < self.oltp_target_margin <= 1:
            raise ConfigurationError("oltp_target_margin must be in (0, 1]")
        # Lazy import: repro.core.modeling imports repro.errors only, but
        # going through repro.config at module load would be a cycle.
        from repro.core.modeling.registry import parse_model_spec

        parse_model_spec(self.model)


@dataclass(frozen=True)
class WorkloadScaleConfig:
    """Time scaling of the paper's 18 x 8-minute run (DESIGN.md §4)."""

    period_seconds: float = 240.0
    num_periods: int = 18
    think_time: float = 0.0

    def validate(self) -> None:
        if not (0 < self.period_seconds < math.inf):  # NaN too
            raise ConfigurationError("period_seconds must be positive and finite")
        if not self.num_periods >= 1:
            raise ConfigurationError("num_periods must be >= 1")
        if not self.think_time >= 0:
            raise ConfigurationError("think_time must be non-negative")

    @property
    def horizon(self) -> float:
        """Total simulated run length in seconds."""
        return self.period_seconds * self.num_periods


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration for one simulated experiment."""

    seed: int = 7
    system_cost_limit: float = 30_000.0
    resources: ResourceConfig = field(default_factory=ResourceConfig)
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    agents: AgentConfig = field(default_factory=AgentConfig)
    patroller: PatrollerConfig = field(default_factory=PatrollerConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    scale: WorkloadScaleConfig = field(default_factory=WorkloadScaleConfig)

    def validate(self) -> "SimulationConfig":
        """Validate the whole tree; returns self for chaining.

        The planner goes before the monitor: the CLI derives the monitor's
        windows from ``planner.control_interval``, so a bad interval is
        reported as itself, not as a window it spoiled.
        """
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigurationError(
                "seed must be a non-negative integer, got {!r}".format(seed)
            )
        if not self.system_cost_limit > 0:
            raise ConfigurationError("system_cost_limit must be positive")
        self.resources.validate()
        self.overload.validate()
        self.optimizer.validate()
        self.agents.validate()
        self.patroller.validate()
        self.planner.validate()
        self.monitor.validate()
        self.scale.validate()
        return self

    def with_updates(self, **kwargs) -> "SimulationConfig":
        """Return a copy with top-level fields replaced (and validated)."""
        return replace(self, **kwargs).validate()


#: The three service classes of Section 4, as (name, kind, goal, importance).
#: Class 1 and 2 are TPC-H (velocity goals 0.4 / 0.6); Class 3 is TPC-C with
#: a 0.25 s average-response-time goal and the highest importance.
PAPER_CLASSES: Tuple[Tuple[str, str, float, int], ...] = (
    ("class1", "olap", 0.40, 1),
    ("class2", "olap", 0.60, 2),
    ("class3", "oltp", 0.25, 3),
)


def default_config(**overrides) -> SimulationConfig:
    """The calibrated default configuration used by tests and benches."""
    return SimulationConfig(**overrides).validate()
