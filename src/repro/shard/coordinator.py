"""The global coordinator: runs a shard fleet and merges the outcome.

Two execution modes, selected by the spec's ``rebalance`` field:

``"static"``
    The global cost limit is split once up front (proportional to routed
    cost-weighted demand, exact-sum); each shard is then a completely
    independent run, fanned out through
    :func:`~repro.experiments.parallel.run_requests` — ``jobs=N`` runs N
    shards in worker processes, and (as everywhere in this package)
    worker count never changes results.

``"interval"``
    Lockstep mode: every shard's deployment is built in-process and the
    fleet advances in control-interval slices.  Between slices the
    coordinator reads each shard's *live* demand (executing cost plus
    cost-weighted held queries) and re-splits the global limit across
    the shard solvers via
    :meth:`~repro.core.solver.PerformanceSolver.set_system_cost_limit`.
    Requires ``jobs=1`` (the slicing is inherently sequential) and the
    Query Scheduler controller (only it exposes a solver to retarget).

After either mode, the coordinator evaluates the *global* invariants
(:mod:`repro.shard.invariants`) — routing conservation, cost-limit
partition, completion conservation — and, when the base spec runs in
strict mode, raises :class:`~repro.errors.InvariantViolation` on any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live import TelemetryHub
    from repro.validation.invariants import Violation

from repro.config import default_config
from repro.errors import ConfigurationError, ExperimentError, InvariantViolation
from repro.experiments.parallel import (
    ProgressCallback,
    RunRequest,
    RunSummary,
    resolve_jobs,
    run_requests,
    summarize_result,
)
from repro.experiments.runner import (
    ExperimentSpec,
    assemble_run,
    finish_run,
    run_spec,
)
from repro.shard.invariants import (
    check_completion_conservation,
    check_cost_partition,
    check_routing_conservation,
)
from repro.shard.report import ShardedRunReport, build_sharded_report
from repro.shard.spec import (
    ShardedExperimentSpec,
    default_class_weights,
    split_cost_limit,
)


@dataclass
class ShardedRunResult:
    """Everything one sharded run produced."""

    spec: ShardedExperimentSpec
    summaries: List[RunSummary]
    report: ShardedRunReport
    #: Global invariant violations (also embedded in the report).
    violations: List[Violation] = field(default_factory=list)
    #: The per-shard cost limits in force at the end of the run (equal to
    #: the static split in static mode; the last rebalance in interval mode).
    final_cost_limits: List[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every global invariant held."""
        return not self.violations


def _shard_label(index: int) -> str:
    return "shard{:02d}".format(index)


def _spec_cost_limit(spec: ExperimentSpec) -> float:
    config = spec.config if spec.config is not None else default_config()
    return config.system_cost_limit


def _fleet_start_data(
    spec: ShardedExperimentSpec, shard_specs: Sequence[ExperimentSpec]
) -> dict:
    """The fleet-level ``snapshot`` event payload (shard layout + goals)."""
    from repro.obs.live.publish import run_start_data

    data = run_start_data(
        spec.base.controller,
        spec.base.backend,
        (spec.base.config or default_config()).validate(),
        spec.resolved_schedule(),
        spec.resolved_classes(),
    )
    # The shard keys go before ``classes``, where the wire has always had them.
    classes = data.pop("classes")
    data.update(
        shards=spec.shards,
        router=spec.router,
        rebalance=spec.rebalance,
        shard_cost_limits=[_spec_cost_limit(s) for s in shard_specs],
        classes=classes,
    )
    return data


def run_sharded(
    spec: ShardedExperimentSpec,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    hub: Optional["TelemetryHub"] = None,
) -> ShardedRunResult:
    """Run every shard, evaluate the global invariants, merge the report.

    ``jobs`` fans static-mode shards over worker processes exactly like
    every other batch runner (``1`` = serial, ``None`` = one per CPU);
    results are identical at any worker count.  A shard that crashes
    raises :class:`~repro.errors.ExperimentError` naming it.  In strict
    invariant mode a global violation raises
    :class:`~repro.errors.InvariantViolation` after the report (with the
    violations embedded) has been assembled.

    ``hub`` streams the fleet live (``repro run --shards N --dashboard``):
    a fleet-level ``snapshot`` up front, per-shard ``interval``/``run_end``
    events, every cost-limit split as a ``shard_rebalance`` event (the
    static split once at t=0; interval mode's re-split each slice), and a
    final fleet-level ``run_end`` carrying the merged report.  A hub
    requires ``jobs=1``: live events come from in-process plan listeners,
    which worker processes cannot deliver.
    """
    spec.validate()
    shard_specs = spec.shard_specs()
    if hub is not None and resolve_jobs(jobs) != 1:
        raise ConfigurationError(
            "a live telemetry hub requires jobs=1 (got jobs={!r}): events "
            "are published by in-process plan listeners, which worker "
            "processes cannot deliver".format(jobs)
        )
    if hub is not None:
        hub.publish(
            "snapshot", _fleet_start_data(spec, shard_specs), time=0.0
        )
    if spec.rebalance == "interval":
        if resolve_jobs(jobs) != 1:
            raise ConfigurationError(
                "rebalance='interval' runs the fleet in lockstep and "
                "requires jobs=1 (got jobs={!r}); use rebalance='static' "
                "for parallel fan-out".format(jobs)
            )
        summaries, final_limits = _run_lockstep(spec, shard_specs, hub=hub)
    elif hub is not None:
        # Serial in-process fan-out so each shard's plan listeners can
        # publish; identical results to the run_requests path (jobs=1
        # there is the same serial order, just without the hub).
        final_limits = [_spec_cost_limit(s) for s in shard_specs]
        hub.publish(
            "shard_rebalance",
            {"mode": "static", "limits": list(final_limits), "demands": None},
            time=0.0,
        )
        summaries = []
        for index, shard_spec in enumerate(shard_specs):
            try:
                result = run_spec(shard_spec, hub=hub, shard=index)
            except Exception as exc:
                raise ExperimentError(
                    "shard {} failed:\n{}".format(_shard_label(index), exc)
                ) from exc
            summaries.append(summarize_result(result, label=_shard_label(index)))
    else:
        requests = [
            RunRequest(spec=shard_spec, label=_shard_label(index))
            for index, shard_spec in enumerate(shard_specs)
        ]
        outcomes = run_requests(requests, jobs=jobs, progress=progress)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            raise ExperimentError(
                "{} of {} shards failed; first failure ({}):\n{}".format(
                    len(failures),
                    len(outcomes),
                    failures[0].request.describe(),
                    failures[0].error,
                )
            )
        summaries = [outcome.summary for outcome in outcomes]
        final_limits = [_spec_cost_limit(s) for s in shard_specs]

    report = build_sharded_report(
        summaries=summaries,
        shards=spec.shards,
        router=spec.router,
        rebalance=spec.rebalance,
        cost_limits=final_limits,
    )
    violations = _global_violations(spec, shard_specs, summaries, final_limits, report)
    report.violations = violations
    result = ShardedRunResult(
        spec=spec,
        summaries=summaries,
        report=report,
        violations=violations,
        final_cost_limits=list(final_limits),
    )
    if hub is not None:
        from repro.shard.report import sharded_report_to_dict

        hub.publish(
            "run_end",
            {
                "report": sharded_report_to_dict(report),
                "ok": result.ok,
                "final_cost_limits": list(final_limits),
            },
            time=spec.resolved_schedule().horizon,
        )
    if violations and spec.base.invariants == "strict":
        raise InvariantViolation(
            "global shard invariants violated:\n"
            + "\n".join(v.describe() for v in violations)
        )
    return result


def _global_violations(
    spec: ShardedExperimentSpec,
    shard_specs: Sequence[ExperimentSpec],
    summaries: Sequence[RunSummary],
    final_limits: Sequence[float],
    report: ShardedRunReport,
) -> List[Violation]:
    """Evaluate every cross-shard invariant against the finished run and
    its merged report."""
    global_schedule = spec.resolved_schedule()
    shard_schedules = [s.schedule for s in shard_specs if s.schedule is not None]
    config = (spec.base.config or default_config()).validate()
    end = global_schedule.horizon
    violations = check_routing_conservation(global_schedule, shard_schedules, time=end)
    violations += check_cost_partition(
        config.system_cost_limit, final_limits, time=end
    )
    violations += check_completion_conservation(
        [summary.class_completions for summary in summaries],
        report.completions,
        time=end,
        shard_totals=[summary.total_completions for summary in summaries],
        merged_total=report.total_completions,
    )
    return violations


def _run_lockstep(
    spec: ShardedExperimentSpec,
    shard_specs: Sequence[ExperimentSpec],
    hub: Optional["TelemetryHub"] = None,
) -> "tuple[List[RunSummary], List[float]]":
    """Advance every shard in control-interval slices, re-splitting limits.

    Each shard is the same deployment a single run would be
    (:func:`~repro.experiments.runner.assemble_run` /
    :func:`~repro.experiments.runner.finish_run`, so tracing, scheduled
    faults and invariant harnesses behave exactly as in
    :func:`~repro.experiments.runner.run_spec`); only the time loop is
    owned here: all shards run to the same slice boundary before the
    coordinator reads their live demand and retargets every shard solver
    with its new share.
    """
    base = spec.base
    if base.controller not in ("qs", "qs_detect"):
        raise ConfigurationError(
            "rebalance='interval' retargets each shard's solver and "
            "requires the Query Scheduler controller (qs/qs_detect), "
            "got {!r}".format(base.controller)
        )
    if base.backend != "sim":
        raise ConfigurationError(
            "rebalance='interval' advances shards in virtual-time lockstep "
            "and requires the simulation backend, got {!r}".format(base.backend)
        )
    config = (base.config or default_config()).validate()
    weights = default_class_weights(spec.resolved_classes())
    mean_weight = sum(weights.values()) / len(weights) if weights else 1.0
    total_limit = config.system_cost_limit
    floor = spec.cost_floor()
    interval = config.planner.control_interval

    runs = []
    try:
        for index, shard_spec in enumerate(shard_specs):
            runs.append(assemble_run(shard_spec, hub=hub, shard=index))
        bundles = [run.bundle for run in runs]

        horizon = max(bundle.schedule.horizon for bundle in bundles)
        if base.horizon is not None:
            horizon = min(horizon, base.horizon)
        limits = [_spec_cost_limit(s) for s in shard_specs]
        now = 0.0
        while now < horizon:
            now = min(now + interval, horizon)
            for bundle in bundles:
                bundle.run(horizon=now)
            if now >= horizon:
                break
            demands = [
                bundle.engine.executing_cost()
                + bundle.patroller.held_queries * mean_weight
                for bundle in bundles
            ]
            limits = split_cost_limit(total_limit, demands, floor)
            for bundle, limit in zip(bundles, limits):
                bundle.controller.solver.set_system_cost_limit(limit)
            if hub is not None:
                hub.publish(
                    "shard_rebalance",
                    {
                        "mode": "interval",
                        "demands": list(demands),
                        "limits": list(limits),
                    },
                    time=now,
                )
    except BaseException:
        for run in runs:
            run.bundle.close()
        raise
    summaries = [
        summarize_result(finish_run(run), label=_shard_label(index))
        for index, run in enumerate(runs)
    ]
    return summaries, list(limits)
