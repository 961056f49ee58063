"""Export: the one file writer, and result JSON / CSV serialisation.

:func:`open_export` is behind every ``save_*`` in this package.  The
contract (docs/API.md, "Exports"): an existing target is refused unless
``overwrite``; the bytes stream into a sibling temp file that is renamed
over the target when the block ends cleanly and unlinked on any
exception, so the target is the complete new file or exactly what was
there; a symlink is written through, a device or FIFO written into; no
``fsync`` — safe against a dying process, not power loss.

The ``result_*`` helpers produce plain structures (JSON-ready dicts, CSV
text) from a :class:`~repro.experiments.runner.ExperimentResult` for
downstream tooling.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager, suppress
from typing import IO, TYPE_CHECKING, Dict, Iterator, Optional

from repro.errors import ExportError

if TYPE_CHECKING:  # avoid a circular import; the functions duck-type anyway
    from repro.experiments.runner import ExperimentResult


def check_export_target(path: str, overwrite: bool) -> None:
    """Raise :class:`~repro.errors.ExportError` if ``path`` may not be written:
    its directory is missing, or it exists and ``overwrite`` is false."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        problem = "the directory of export target {!r} does not exist".format(path)
    elif not overwrite and os.path.exists(path):
        problem = (
            "export target {!r} already exists; pass overwrite=True to "
            "replace it".format(path)
        )
    else:
        return
    raise ExportError(problem)


@contextmanager
def open_export(path, overwrite: bool) -> Iterator[IO[str]]:
    """Text handle whose content replaces ``path`` once the block succeeds."""
    path = os.fspath(path)
    check_export_target(path, overwrite)
    if os.path.exists(path) and not os.path.isfile(path):
        # /dev/stdout, /dev/null, a FIFO: nothing to replace, write into it
        with open(path, "w") as handle:
            yield handle
        return
    target = os.path.realpath(path)  # write through a symlink, not over it
    temp = "{}.tmp{}".format(target, os.getpid())
    try:
        with open(temp, "w") as handle:
            yield handle
        os.replace(temp, target)
    finally:  # already renamed away on success; removed on any exception
        with suppress(FileNotFoundError):
            os.unlink(temp)


def result_to_dict(result: "ExperimentResult") -> Dict:
    """Flatten an experiment result into a JSON-serialisable dict."""
    classes = []
    for service_class in result.classes:
        series = result.collector.performance_series(service_class)
        classes.append(
            {
                "name": service_class.name,
                "kind": service_class.kind,
                "metric": service_class.goal.metric,
                "goal": service_class.goal.target,
                "importance": service_class.importance,
                "per_period": series,
                "attainment": result.collector.goal_attainment(service_class),
                "throughput_per_period": result.collector.metric_series(
                    service_class.name, "throughput"
                ),
                "wait_time_per_period": result.collector.metric_series(
                    service_class.name, "wait_time"
                ),
                "execution_time_per_period": result.collector.metric_series(
                    service_class.name, "execution_time"
                ),
                "response_p95_per_period": result.collector.metric_series(
                    service_class.name, "response_p95"
                ),
            }
        )
    plans = {
        service_class.name: result.collector.plan_period_means(service_class.name)
        for service_class in result.classes
    }
    payload = {
        "controller": result.controller_name,
        "seed": result.config.seed,
        "system_cost_limit": result.config.system_cost_limit,
        "period_seconds": result.schedule.period_seconds,
        "num_periods": result.schedule.num_periods,
        "total_completions": result.collector.total_completions,
        "classes": classes,
        "plan_period_means": plans,
    }
    telemetry = result.extras.get("telemetry")
    if telemetry is not None:
        payload["telemetry"] = {
            "intervals": len(telemetry),
            "prediction_error": {
                name: summary.to_dict()
                for name, summary in telemetry.prediction_error_summary().items()
            },
            "dispatcher_balance": telemetry.dispatcher_balance(),
            "violations": telemetry.violations(),
            "overhead": telemetry.overhead_summary(),
        }
    harness = result.extras.get("validation")
    if harness is not None:
        payload["validation"] = {
            "mode": harness.mode,
            "checks_run": harness.checks_run,
            "invariants": harness.registry.names,
            "violations": [v.to_dict() for v in harness.violations],
        }
    return payload


def result_to_json(result: "ExperimentResult", indent: Optional[int] = 2) -> str:
    """JSON text for :func:`result_to_dict`."""
    return json.dumps(result_to_dict(result), indent=indent)


def result_to_csv(result: "ExperimentResult") -> str:
    """Per-period CSV: one row per (period, class) with all metrics."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "period",
            "class",
            "metric",
            "goal",
            "value",
            "meets_goal",
            "throughput",
            "mean_plan_limit",
            "wait_time",
            "execution_time",
            "response_p95",
        ]
    )

    def _fmt(value: Optional[float]) -> str:
        return "" if value is None else "{:.6f}".format(value)

    for service_class in result.classes:
        series = result.collector.performance_series(service_class)
        throughput = result.collector.metric_series(service_class.name, "throughput")
        plan_means = result.collector.plan_period_means(service_class.name)
        wait = result.collector.metric_series(service_class.name, "wait_time")
        execution = result.collector.metric_series(
            service_class.name, "execution_time"
        )
        p95 = result.collector.metric_series(service_class.name, "response_p95")
        for period in range(result.schedule.num_periods):
            value = series[period]
            meets: Optional[bool] = None
            if value is not None:
                meets = service_class.goal.satisfied(value)
            writer.writerow(
                [
                    period + 1,
                    service_class.name,
                    service_class.goal.metric,
                    service_class.goal.target,
                    _fmt(value),
                    "" if meets is None else meets,
                    _fmt(throughput[period]),
                    "" if plan_means[period] is None else "{:.1f}".format(
                        plan_means[period]
                    ),
                    _fmt(wait[period]),
                    _fmt(execution[period]),
                    _fmt(p95[period]),
                ]
            )
    return buffer.getvalue()


def save_result(result: "ExperimentResult", path: str) -> None:
    """Write a result to ``path`` as JSON (.json), its control-interval
    telemetry as JSON Lines (.jsonl; a planner-based controller's run
    only) or CSV (anything else)."""
    if path.endswith(".jsonl"):
        result.extras["telemetry"].save_jsonl(path, overwrite=True)
        return
    text = result_to_json(result) if path.endswith(".json") else result_to_csv(result)
    with open_export(path, overwrite=True) as handle:
        handle.write(text)


def load_result_dict(path: str) -> Dict:
    """Read back a JSON result file as a plain dict."""
    with open(path) as handle:
        return json.load(handle)
