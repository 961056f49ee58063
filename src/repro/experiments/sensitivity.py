"""Generic configuration sensitivity sweeps.

Every ablation bench follows the same pattern: vary one configuration
field, re-run the experiment, compare attainment.  :func:`sweep` makes that
a one-liner for *any* field of the (nested, frozen) configuration tree,
addressed by dotted path — e.g. ``"overload.knee_cost"``,
``"planner.control_interval"``, ``"optimizer.noise_sigma"`` or the
top-level ``"system_cost_limit"``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimulationConfig, default_config
from repro.core.service_class import ServiceClass
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.parallel import ProgressCallback, RunRequest, run_requests
from repro.experiments.runner import ExperimentSpec
from repro.metrics.report import Column, Table
from repro.workloads.schedule import PeriodSchedule

#: One sweep point: the swept value and its per-class goal attainment.
SweepEntry = Tuple[object, Dict[str, float]]


def set_config_field(
    config: SimulationConfig, dotted_path: str, value
) -> SimulationConfig:
    """Return a validated copy of ``config`` with one field replaced.

    ``dotted_path`` addresses nested frozen dataclasses:
    ``"planner.control_interval"`` replaces
    ``config.planner.control_interval``; a bare name replaces a top-level
    field.  Unknown segments raise :class:`ConfigurationError`.
    """
    parts = dotted_path.split(".")
    for part in parts:
        if not part:
            raise ConfigurationError("empty segment in path {!r}".format(dotted_path))

    def rebuild(node, remaining):
        name = remaining[0]
        if not dataclasses.is_dataclass(node) or not any(
            f.name == name for f in dataclasses.fields(node)
        ):
            raise ConfigurationError(
                "unknown config field {!r} (in path {!r})".format(name, dotted_path)
            )
        if len(remaining) == 1:
            return dataclasses.replace(node, **{name: value})
        child = getattr(node, name)
        return dataclasses.replace(node, **{name: rebuild(child, remaining[1:])})

    updated = rebuild(config, parts)
    return updated.validate()


def sweep(
    dotted_path: str,
    values: Sequence,
    controller: str = "qs",
    config: Optional[SimulationConfig] = None,
    schedule: Optional[PeriodSchedule] = None,
    classes: Optional[List[ServiceClass]] = None,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    base_spec: Optional[ExperimentSpec] = None,
) -> List[SweepEntry]:
    """Run the experiment once per value of the addressed field.

    Returns ordered ``(value, {class_name: attainment})`` entries, one per
    input value in input order.  Entries are positional, not keyed, so
    duplicate values each get their own entry and unhashable values (e.g.
    a list-typed field) are fine.  Every configuration is built and
    validated up front, so a bad value raises :class:`ConfigurationError`
    before any simulation runs; a run that crashes mid-sweep raises
    :class:`ExperimentError` naming the failing value (a silently missing
    point would skew the curve).

    ``jobs`` fans the points over worker processes (``1`` = serial,
    ``None`` = one per CPU) without changing the results.

    Every point re-runs one base
    :class:`~repro.experiments.runner.ExperimentSpec` with only the
    addressed configuration field changed.  Pass it as ``base_spec`` (the
    scenario path, ``repro sweep --scenario``: backend, invariant mode,
    scheduled faults and all); ``controller``/``config``/``schedule``/
    ``classes`` are shorthand for a plain spec of those four fields and
    must not be combined with ``base_spec``.
    """
    values = list(values)
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    if base_spec is None:
        base_spec = ExperimentSpec(
            controller=controller, config=config, schedule=schedule, classes=classes
        )
    elif any(arg is not None for arg in (config, schedule, classes)):
        raise ConfigurationError(
            "sweep: pass either base_spec or config/schedule/classes, not both"
        )
    base = (base_spec.config or default_config()).validate()
    requests = [
        RunRequest(
            spec=base_spec.with_overrides(
                config=set_config_field(base, dotted_path, value)
            ),
            label=label,
        )
        for value, label in zip(values, _sweep_labels(dotted_path, values))
    ]
    outcomes = run_requests(requests, jobs=jobs, progress=progress)
    return _collect_entries(dotted_path, values, outcomes)


def _sweep_labels(dotted_path: str, values) -> List[str]:
    """One unique ``path=value`` label per sweep point.

    Repeated values (a legitimate sweep — e.g. probing run-to-run noise
    by sweeping ``seed`` over ``[7, 7, 7]``) get an ordinal suffix, so
    ``RunRequest.describe()`` values are unique within the batch and
    progress lines never conflate two points.
    """
    labels: List[str] = []
    seen: Dict[str, int] = {}
    for value in values:
        label = "{}={!r}".format(dotted_path, value)
        ordinal = seen.get(label, 0)
        seen[label] = ordinal + 1
        labels.append(label if ordinal == 0 else "{}#{}".format(label, ordinal + 1))
    return labels


def _collect_entries(dotted_path: str, values, outcomes) -> List[SweepEntry]:
    """Pair swept values with attainments; fail loudly on any bad point."""
    entries: List[SweepEntry] = []
    for value, outcome in zip(values, outcomes):
        if not outcome.ok:
            raise ExperimentError(
                "sweep of {!r} failed at value {!r}:\n{}".format(
                    dotted_path, value, outcome.error
                )
            )
        entries.append((value, outcome.summary.attainment))
    return entries


def sweep_table(
    dotted_path: str,
    entries: Sequence[SweepEntry],
    class_names: Sequence[str],
) -> Table:
    """Per-class attainment at each of the ordered ``(value, attainment)``
    entries :func:`sweep` returns."""
    columns = [Column(dotted_path)] + [Column(name, "{:.0%}") for name in class_names]
    rows = [
        [str(value)] + [attainment.get(name) for name in class_names]
        for value, attainment in entries
    ]
    return Table(columns, rows)
