"""Multi-seed replication of experiments.

The paper reports a single 24-hour run.  A reproduction should quantify
run-to-run variance: :func:`replicate` re-runs an experiment across seeds
and aggregates per-class attainment and goal-metric means, and
:func:`compare` does that for several controllers on the *same* seeds so
differences are paired, not confounded by workload randomness.

Both fan their runs out through :mod:`repro.experiments.parallel`: pass
``jobs=4`` (or ``jobs=None`` for one worker per CPU) and the seeds run in
worker processes instead of back-to-back.  Results are aggregated in seed
order regardless of completion order, so the summaries are bitwise
identical at any worker count.  A run that crashes becomes a
:class:`RunFailure` entry on its summary instead of killing the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SimulationConfig, default_config
from repro.core.service_class import ServiceClass
from repro.experiments.parallel import (
    ProgressCallback,
    RunOutcome,
    RunRequest,
    run_requests,
)
from repro.experiments.runner import ExperimentSpec
from repro.metrics.report import Column, Table
from repro.sim.stats import WelfordAccumulator
from repro.workloads.schedule import PeriodSchedule


@dataclass
class ClassReplicationStats:
    """Across-seed aggregates for one service class.

    Two attainment views coexist: ``attainment`` (the per-run Welford
    accumulator — unweighted across-run mean and spread, the right lens
    for run-to-run *variance*) and :attr:`weighted_attainment` (pooled by
    completed-query counts — the right lens for the *overall* SLO report,
    where a run that completed 40 queries must not weigh the same as one
    that completed 40,000).
    """

    class_name: str
    attainment: WelfordAccumulator = field(default_factory=WelfordAccumulator)
    metric_mean: WelfordAccumulator = field(default_factory=WelfordAccumulator)
    #: Total completed queries of this class across all runs.
    completions: int = 0
    #: Sum of per-run ``attainment * completions`` (weighted numerator).
    _weighted_sum: float = 0.0

    def add_run(self, attainment: float, completions: int) -> None:
        """Fold one run's attainment with its completed-query weight."""
        self.attainment.add(attainment)
        self.completions += int(completions)
        self._weighted_sum += attainment * completions

    @property
    def weighted_attainment(self) -> float:
        """Attainment pooled by completed-query counts (not mean-of-means)."""
        if self.completions <= 0:
            return self.attainment.mean
        return self._weighted_sum / self.completions


@dataclass(frozen=True)
class RunFailure:
    """One seed's failure within a replication batch."""

    seed: int
    error: str


@dataclass
class ReplicationSummary:
    """Aggregated outcome of one controller across seeds."""

    controller: str
    seeds: List[int]
    per_class: Dict[str, ClassReplicationStats]
    #: Seeds whose run crashed (isolated; they contribute no aggregates).
    errors: List[RunFailure] = field(default_factory=list)

    def attainment_mean(self, class_name: str) -> float:
        """Across-seed attainment of a class, weighted by completions.

        Pooled by completed-query counts: a seed that completed ten times
        the queries contributes ten times the weight (averaging per-run
        means skews the SLO report whenever runs complete unequal
        volumes).  The unweighted across-run mean remains available as
        ``per_class[name].attainment.mean``.
        """
        return self.per_class[class_name].weighted_attainment

    def attainment_std(self, class_name: str) -> float:
        """Across-seed standard deviation of a class's attainment."""
        return self.per_class[class_name].attainment.stddev


def _seed_requests(
    controller: str,
    seeds: Sequence[int],
    base: SimulationConfig,
    schedule: Optional[PeriodSchedule],
    classes: Optional[List[ServiceClass]],
) -> List[RunRequest]:
    """One request per seed, in seed order."""
    return [
        RunRequest(
            spec=ExperimentSpec(
                controller=controller,
                config=base.with_updates(seed=int(seed)),
                schedule=schedule,
                classes=classes,
            ),
            label="{}:seed={}".format(controller, int(seed)),
        )
        for seed in seeds
    ]


def _aggregate(
    controller: str,
    seeds: Sequence[int],
    outcomes: Sequence[RunOutcome],
) -> ReplicationSummary:
    """Fold outcomes (already in seed order) into a summary."""
    per_class: Dict[str, ClassReplicationStats] = {}
    errors: List[RunFailure] = []
    for seed, outcome in zip(seeds, outcomes):
        if not outcome.ok:
            errors.append(RunFailure(seed=int(seed), error=outcome.error))
            continue
        summary = outcome.summary
        for name in summary.class_names:
            stats = per_class.setdefault(name, ClassReplicationStats(name))
            stats.add_run(
                summary.attainment[name],
                summary.class_completions.get(name, 0),
            )
            mean = summary.metric_mean(name)
            if mean is not None:
                stats.metric_mean.add(mean)
    return ReplicationSummary(
        controller=controller,
        seeds=list(seeds),
        per_class=per_class,
        errors=errors,
    )


def replicate(
    controller: str,
    seeds: Sequence[int],
    config: Optional[SimulationConfig] = None,
    schedule: Optional[PeriodSchedule] = None,
    classes: Optional[List[ServiceClass]] = None,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
) -> ReplicationSummary:
    """Run one controller across several seeds and aggregate.

    ``jobs`` fans the seeds over worker processes (``1`` = serial,
    ``None`` = one per CPU); aggregates are identical at any worker
    count.  A crashed seed lands in ``summary.errors`` instead of
    raising.
    """
    if not seeds:
        raise ValueError("replicate needs at least one seed")
    base = (config or default_config()).validate()
    requests = _seed_requests(controller, seeds, base, schedule, classes)
    outcomes = run_requests(requests, jobs=jobs, progress=progress)
    return _aggregate(controller, seeds, outcomes)


def compare(
    controllers: Sequence[str],
    seeds: Sequence[int],
    config: Optional[SimulationConfig] = None,
    schedule: Optional[PeriodSchedule] = None,
    classes: Optional[List[ServiceClass]] = None,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, ReplicationSummary]:
    """Replicate several controllers over the same seeds (paired design).

    The full controller x seed cross-product is fanned out in one batch,
    so ``jobs=4`` keeps four workers busy across the whole comparison
    rather than parallelizing one controller at a time.
    """
    if not seeds:
        raise ValueError("compare needs at least one seed")
    seeds = list(seeds)
    base = (config or default_config()).validate()
    requests: List[RunRequest] = []
    for controller in controllers:
        requests.extend(_seed_requests(controller, seeds, base, schedule, classes))
    outcomes = run_requests(requests, jobs=jobs, progress=progress)
    summaries: Dict[str, ReplicationSummary] = {}
    for position, controller in enumerate(controllers):
        chunk = outcomes[position * len(seeds):(position + 1) * len(seeds)]
        summaries[controller] = _aggregate(controller, seeds, chunk)
    return summaries


def comparison_table(
    summaries: Dict[str, ReplicationSummary],
    class_names: Sequence[str],
) -> Table:
    """Attainment per controller and class, then one row per failed seed.

    The headline number is the completion-weighted attainment; the ``+/-``
    spread is the unweighted across-run standard deviation.
    """
    columns = [Column("controller")] + [
        Column(name, "{:.0%} +/-{:>4.0%}") for name in class_names
    ]
    rows: List[List[object]] = []
    for controller, summary in summaries.items():
        row: List[object] = [controller]
        for name in class_names:
            stats = summary.per_class.get(name)
            seen = stats is not None and stats.attainment.count > 0
            row.append(
                (stats.weighted_attainment, stats.attainment.stddev) if seen else None
            )
        rows.append(row)
        rows += [
            ["{} seed {} FAILED: {}".format(
                controller, failure.seed, failure.error.strip().splitlines()[-1]
            )] + [None] * len(class_names)
            for failure in summary.errors
        ]
    return Table(columns, rows)
