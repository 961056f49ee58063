"""Configuration tree for the whole reproduction.

A field lives here only when some entry point sets it: a CLI option, a
scenario's ``control:`` block, a benchmark or an example.  Everything the
paper fixes is a module constant beside the code that reads it: the
testbed's CPUs and disks (:mod:`repro.dbms.engine`), the timeron rates
(:mod:`repro.dbms.optimizer`), the agent pool (:mod:`repro.dbms.agent`),
Query Patroller's overheads (:mod:`repro.patroller.patroller`), the
Monitor's windows (:mod:`repro.core.monitor`) and the solver's grid and
calibrated priors (:mod:`repro.core.solver`, :mod:`repro.core.utility`,
:mod:`repro.core.modeling.analytic`).  Clients think for zero seconds, as
in Section 4.

Units
-----
* Time is in seconds of simulated wall clock.
* Service demand is in seconds-at-full-speed on the relevant resource pool.
* Cost is in *timerons*, the DB2 optimizer's abstract cost unit.

Every range check is written as ``not <in range>`` so that a NaN (YAML's
``.nan``) fails it instead of slipping past every comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class OverloadConfig:
    """Thrashing model: the total in-flight cost past which efficiency
    falls (:mod:`repro.dbms.overload`).  This produces the
    throughput-vs-cost-limit knee the paper uses to pick the system cost
    limit experimentally (Section 2).
    """

    knee_cost: float = 26_000.0

    def validate(self) -> None:
        if not self.knee_cost > 0:
            raise ConfigurationError("overload knee_cost must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    """Cost estimator noise.

    ``noise_sigma`` is the standard deviation of the lognormal multiplicative
    error on the estimate ("cost-based resource allocation is somehow
    inaccurate", Section 5); 0 disables noise.
    """

    noise_sigma: float = 0.10

    def validate(self) -> None:
        if not self.noise_sigma >= 0:
            raise ConfigurationError("noise_sigma must be non-negative")


@dataclass(frozen=True)
class MonitorConfig:
    """Monitor polling and OLTP snapshot sampling (Section 3.3)."""

    snapshot_interval: float = 10.0
    response_time_window: float = 60.0  # seconds of OLTP snapshots per estimate

    def validate(self) -> None:
        if not self.snapshot_interval > 0:
            raise ConfigurationError("snapshot_interval must be positive")
        if not self.response_time_window > 0:
            raise ConfigurationError("response_time_window must be positive")


@dataclass(frozen=True)
class PlannerConfig:
    """Control loop of the Scheduling Planner / Performance Solver."""

    control_interval: float = 60.0
    utility: str = "piecewise"  # piecewise | sigmoid | step
    #: Plan construction strategy: "utility" = the paper's optimization;
    #: "deficit" = the importance-x-deficit heuristic (ablation).
    allocator: str = "utility"
    #: Within-class release ordering: "fifo" (the paper), "sjf"
    #: (cheapest estimated cost first) or "aging" (cost discounted by wait).
    queue_discipline: str = "fifo"
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
        if self.utility not in ("piecewise", "sigmoid", "step"):
            raise ConfigurationError("unknown utility family {!r}".format(self.utility))
        if self.allocator not in ("utility", "deficit"):
            raise ConfigurationError("unknown allocator {!r}".format(self.allocator))
        if self.queue_discipline not in ("fifo", "sjf", "aging"):
            raise ConfigurationError(
                "unknown queue discipline {!r}".format(self.queue_discipline)
            )
        # Lazy import: repro.core.modeling imports repro.errors only, but
        # going through repro.config at module load would be a cycle.
        from repro.core.modeling.registry import parse_model_spec

        parse_model_spec(self.model)


@dataclass(frozen=True)
class WorkloadScaleConfig:
    """Time scaling of the paper's 18 x 8-minute run (DESIGN.md §4)."""

    period_seconds: float = 240.0
    num_periods: int = 18

    def validate(self) -> None:
        if not (0 < self.period_seconds < math.inf):  # NaN too
            raise ConfigurationError("period_seconds must be positive and finite")
        if not self.num_periods >= 1:
            raise ConfigurationError("num_periods must be >= 1")

    @property
    def horizon(self) -> float:
        """Total simulated run length in seconds."""
        return self.period_seconds * self.num_periods


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration for one simulated experiment."""

    seed: int = 7
    system_cost_limit: float = 30_000.0
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
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
        self.overload.validate()
        self.optimizer.validate()
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
