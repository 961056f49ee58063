"""Parallel experiment execution over a process pool.

Every multi-run harness in this package — :func:`~repro.experiments.replication.replicate`,
:func:`~repro.experiments.replication.compare`,
:func:`~repro.experiments.sensitivity.sweep` — used to run its simulations
back-to-back in one process, so a 7-seed x 4-controller paired comparison
paid 28 full simulations serially.  The runs are embarrassingly parallel
(each one is deterministic given its seed and touches no shared state), but
:class:`~repro.experiments.runner.ExperimentResult` holds the live
:class:`~repro.experiments.runner.SimulationBundle` — simulator, engine,
clients, listener closures — and cannot cross a process boundary.

This module supplies the picklable counterparts:

* :class:`RunRequest` — what to run: an
  :class:`~repro.experiments.runner.ExperimentSpec` (plain dataclasses and
  simple containers, so the request pickles cleanly) plus a display label;
* :class:`RunSummary` — what came back, extracted *inside* the worker:
  per-class goal attainment, the per-period goal-metric series, the
  controller telemetry interval records, and solver statistics;
* :class:`RunOutcome` — one request's terminal state: a summary on
  success, an error string (with traceback) on failure, never both;
* :func:`run_requests` — the fan-out: serial for ``jobs=1``, a
  ``ProcessPoolExecutor`` otherwise, with deterministic result ordering
  (outcomes are returned in request order regardless of completion order),
  per-run failure isolation (one crashed run yields an error outcome
  instead of killing the batch), and optional progress callbacks.

Because each simulation is deterministic given its seed, fanning the same
requests over any number of workers produces bitwise-identical summaries —
``jobs`` changes wall-clock time, never results.  The pool (and
``multiprocessing`` with it) is imported only where ``jobs > 1`` builds one.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentResult, ExperimentSpec, run_spec
from repro.metrics.telemetry import ControlIntervalRecord, TelemetryStore

#: Progress hook signature: ``(outcome, completed_count, total_count)``.
#: Called in *completion* order as runs finish; the outcome's ``index``
#: says which request it belongs to.
ProgressCallback = Callable[["RunOutcome", int, int], None]


@dataclass(frozen=True)
class RunRequest:
    """A picklable description of one experiment run.

    The :class:`~repro.experiments.runner.ExperimentSpec` to run —
    controller, configuration, backend choice, invariant mode and
    scheduled faults all cross the process boundary inside it — plus a
    free-form ``label`` used by progress reporting.
    """

    spec: ExperimentSpec
    label: Optional[str] = None

    @property
    def seed(self) -> Optional[int]:
        """The request's seed (None when the default config will be used)."""
        return self.spec.config.seed if self.spec.config is not None else None

    def describe(self) -> str:
        """Short human-readable identity for logs and progress lines —
        the explicit label, or a derived ``controller:seed`` form.  Batch
        builders (``sweep``, ``replicate``, the sharded runner) guarantee
        these are unique within one batch, so progress lines and result
        tables never conflate two runs."""
        if self.label:
            return self.label
        seed = self.seed
        if seed is not None:
            return "{}:seed={}".format(self.spec.controller, seed)
        return self.spec.controller


@dataclass
class RunSummary:
    """The slim, picklable outcome of one experiment run.

    Extracted from the live :class:`~repro.experiments.runner.ExperimentResult`
    *inside* the worker process by :func:`summarize_result`, so only plain
    data crosses back: attainment numbers, metric series, telemetry
    records (themselves frozen dataclasses) and solver statistics.
    """

    controller: str
    seed: int
    class_names: Tuple[str, ...]
    #: Per-class fraction of periods meeting the goal.
    attainment: Dict[str, float]
    #: Per-class goal-metric series (velocity or response time per period).
    performance_series: Dict[str, List[Optional[float]]]
    total_completions: int
    label: Optional[str] = None
    #: Control-interval telemetry (Query Scheduler runs; empty otherwise).
    telemetry_records: Tuple[ControlIntervalRecord, ...] = ()
    #: Solver statistics (``solve_calls``, ``total_evaluations``,
    #: ``last_objective``) when the run produced telemetry.
    solver_stats: Dict[str, object] = field(default_factory=dict)
    #: Completed queries per class — the aggregation weights: cross-run
    #: attainment pools by these counts instead of averaging run means.
    class_completions: Dict[str, int] = field(default_factory=dict)
    #: Per-class response-time histogram states
    #: (:meth:`~repro.sim.stats.Histogram.to_dict` dicts, merged over the
    #: run's periods) so percentile reporting composes across runs/shards.
    response_histograms: Dict[str, Dict] = field(default_factory=dict)

    def metric_mean(self, class_name: str) -> Optional[float]:
        """Mean of the class's non-empty period metrics (None if all empty)."""
        values = [v for v in self.performance_series[class_name] if v is not None]
        if not values:
            return None
        return sum(values) / len(values)

    def telemetry_store(self) -> TelemetryStore:
        """A queryable :class:`TelemetryStore` over the records."""
        return TelemetryStore(list(self.telemetry_records))


@dataclass
class RunOutcome:
    """Terminal state of one request: a summary or an error, never both.

    A worker that raises reports the exception (type, message, traceback)
    in ``error``; the rest of the batch is unaffected.
    """

    index: int
    request: RunRequest
    summary: Optional[RunSummary] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the run completed and produced a summary."""
        return self.error is None


def summarize_result(
    result: ExperimentResult, label: Optional[str] = None
) -> RunSummary:
    """Extract the picklable :class:`RunSummary` from a live result.

    Called inside the worker process; everything it touches on ``result``
    is read-only, and everything it returns is plain data.
    """
    attainment = result.goal_attainment()
    series = result.performance_series()
    store = result.extras.get("telemetry")
    records: Tuple[ControlIntervalRecord, ...] = ()
    solver_stats: Dict[str, object] = {}
    if isinstance(store, TelemetryStore) and len(store):
        records = tuple(store.records)
        last = records[-1]
        solver_stats = {
            "solve_calls": last.solver.solve_calls,
            "total_evaluations": sum(r.solver.evaluations for r in records),
            "last_objective": last.solver.objective,
        }
    histograms: Dict[str, Dict] = {}
    for service_class in result.classes:
        merged = result.collector.class_response_histogram(service_class.name)
        if merged is not None:
            histograms[service_class.name] = merged.to_dict()
    return RunSummary(
        controller=result.controller_name,
        seed=result.config.seed,
        class_names=tuple(c.name for c in result.classes),
        attainment=attainment,
        performance_series=series,
        total_completions=result.collector.total_completions,
        label=label,
        telemetry_records=records,
        solver_stats=solver_stats,
        class_completions=result.collector.completions_by_class(),
        response_histograms=histograms,
    )


def execute_request(request: RunRequest) -> RunSummary:
    """Run one request in-process and summarize it (raises on failure)."""
    return summarize_result(run_spec(request.spec), label=request.label)


def _execute_indexed(index: int, request: RunRequest) -> RunOutcome:
    """Worker entry point: never raises, always returns an outcome."""
    try:
        return RunOutcome(index=index, request=request,
                          summary=execute_request(request))
    except Exception:
        return RunOutcome(index=index, request=request,
                          error=traceback.format_exc())


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` argument: None means one worker per CPU."""
    if jobs is None:
        return os.cpu_count() or 1
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ConfigurationError(
            "jobs must be a positive integer or None, got {!r}".format(jobs)
        )
    return jobs


def run_requests(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
) -> List[RunOutcome]:
    """Execute every request, serially or over a process pool.

    Parameters
    ----------
    requests:
        The runs to execute.
    jobs:
        Worker processes.  ``1`` (the default) runs everything in-process
        with no pool; ``None`` means one worker per CPU.  Worker count
        never changes results — only wall-clock time.
    progress:
        Optional ``(outcome, completed, total)`` hook, called as each run
        finishes (completion order under a pool).

    Returns
    -------
    One :class:`RunOutcome` per request, **in request order** regardless
    of completion order.  A run that raises yields an error outcome; the
    remaining runs are unaffected.
    """
    requests = list(requests)
    jobs = resolve_jobs(jobs)
    total = len(requests)
    outcomes: List[Optional[RunOutcome]] = [None] * total
    if total == 0:
        return []
    if jobs == 1 or total == 1:
        done = 0
        for index, request in enumerate(requests):
            outcome = _execute_indexed(index, request)
            outcomes[index] = outcome
            done += 1
            if progress is not None:
                progress(outcome, done, total)
        return outcomes  # type: ignore[return-value]
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=min(jobs, total)) as pool:
        futures = {
            pool.submit(_execute_indexed, index, request): (index, request)
            for index, request in enumerate(requests)
        }
        done = 0
        for future in as_completed(futures):
            index, request = futures[future]
            try:
                outcome = future.result()
            except Exception as exc:  # pool breakage (worker died, OS error)
                outcome = RunOutcome(
                    index=index,
                    request=request,
                    error="{}: {}".format(type(exc).__name__, exc),
                )
            outcomes[index] = outcome
            done += 1
            if progress is not None:
                progress(outcome, done, total)
    return outcomes  # type: ignore[return-value]
