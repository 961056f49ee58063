"""Offline training from exported controller telemetry.

``repro trace`` (and every Query Scheduler run) exports one
:class:`~repro.metrics.telemetry.ControlIntervalRecord` per control
interval as JSONL: per-class measurements, the solver's chosen
allocation, and the dispatcher's queue/in-flight accounting.  That is
exactly one :class:`~repro.core.modeling.protocol.IntervalObservation`
per line — so offline training is a *replay*: reconstruct the
observation stream and feed it through the same
:meth:`LearnedPerformanceModel.observe` path the live controller uses.
One code path, no train/serve skew.

``repro train --telemetry DIR --output model.json`` is the CLI wrapper;
:func:`evaluate_on_records` is the offline (prequential) scorer the
model-ablation bench and the workload-shift tests share.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.modeling.learned import LearnedPerformanceModel
from repro.core.modeling.protocol import (
    ClassMixState,
    IntervalObservation,
    MixSnapshot,
)
from repro.errors import ConfigurationError
from repro.metrics.export import open_export
from repro.metrics.telemetry import TelemetryStore


def _metric_kind(metric: str) -> str:
    """Map a telemetry metric name onto a model class kind."""
    return "olap" if metric == "velocity" else "oltp"


def _mapping(value) -> Mapping:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise TypeError
    return value


def _number(value):
    if value is not None and not isinstance(value, (int, float)):
        raise TypeError
    return value


def _field(index: int, key: str, convert, value):
    """``convert(value)``, or a ConfigurationError naming the record and key."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            "telemetry record {} (0-based): {!r} has the wrong type ({!r})".format(
                index, key, value
            )
        ) from None


def observations_from_records(
    records: Sequence[Mapping],
) -> List[IntervalObservation]:
    """Reconstruct the per-interval observation stream from record dicts.

    Record ``k``'s measurements/dispatcher state pair with the allocation
    chosen at record ``k-1`` (the limits *active while* those values were
    realised) — the same pairing the live planner hands ``observe``.  The
    first record has no active-plan predecessor and seeds the initial
    mix from its own allocation.  A value of the wrong type raises
    :class:`~repro.errors.ConfigurationError` naming the record and key.
    """
    observations: List[IntervalObservation] = []
    previous_allocation: Optional[Mapping] = None
    for index, record in enumerate(records):
        record = _field(index, "record", _mapping, record)
        solver = _field(index, "solver", _mapping, record.get("solver"))
        allocation = {
            name: _field(index, "solver.allocation." + name, float, limit or 0.0)
            for name, limit in _field(
                index, "solver.allocation", _mapping, solver.get("allocation")
            ).items()
        }
        measurements = _field(index, "measurements", _mapping, record.get("measurements"))
        dispatcher = _field(index, "dispatcher", _mapping, record.get("dispatcher"))
        active = previous_allocation if previous_allocation is not None else allocation
        states = []
        for name in sorted(set(active) | set(measurements)):
            measurement = _field(
                index, "measurements." + name, _mapping, measurements.get(name)
            )
            queues = _field(index, "dispatcher." + name, _mapping, dispatcher.get(name))
            key = "dispatcher.{}.".format(name)
            states.append(
                ClassMixState(
                    name=name,
                    kind=_metric_kind(measurement.get("metric", "velocity")),
                    limit=active.get(name, 0.0),
                    value=_field(
                        index, "measurements.{}.value".format(name), _number,
                        measurement.get("value"),
                    ),
                    queue_length=_field(
                        index, key + "queue_length", int, queues.get("queue_length") or 0
                    ),
                    in_flight_count=_field(
                        index, key + "in_flight_count", int,
                        queues.get("in_flight_count") or 0,
                    ),
                    in_flight_cost=_field(
                        index, key + "in_flight_cost", float,
                        queues.get("in_flight_cost") or 0.0,
                    ),
                )
            )
        time = _field(index, "time", float, record.get("time", 0.0))
        observations.append(
            IntervalObservation(
                time=time, mix=MixSnapshot(time=time, classes=tuple(states))
            )
        )
        previous_allocation = allocation
    return observations


def fit_from_records(
    records: Sequence[Mapping],
    model: Optional[LearnedPerformanceModel] = None,
) -> LearnedPerformanceModel:
    """Fit (or continue fitting) a learned model from record dicts."""
    if model is None:
        model = LearnedPerformanceModel()
    for observation in observations_from_records(records):
        model.observe(observation)
    # A fresh training pass must not leak its last mix into live pairing.
    model._pending = None
    return model


def evaluate_on_records(
    records: Sequence[Mapping],
    model,
) -> Dict[str, List[Tuple[float, float]]]:
    """Prequential one-step prediction errors of ``model`` over a trace.

    For every interval transition the model predicts each class's next
    value from the current value, the limit that will be active, and the
    current mix — *then* gets to observe the realised outcome (online
    models adapt as they go, exactly as they would live).  Returns
    ``{class: [(time_of_outcome, |error|), ...]}``.

    Replayed through a tiny status shim so the scorer works for any
    :class:`PerformanceModel` without a live control loop.
    """

    class _Goal:
        def __init__(self, target: float) -> None:
            self.target = target

        def achievement(self, value: float) -> float:
            return 1.0

    class _ServiceClass:
        def __init__(self, name: str, kind: str) -> None:
            self.name = name
            self.kind = kind
            self.importance = 1.0
            self.goal = _Goal(1.0)

    class _Status:
        def __init__(self, service_class, current_limit, current_value) -> None:
            self.service_class = service_class
            self.current_limit = current_limit
            self.current_value = current_value

    observations = observations_from_records(records)
    errors: Dict[str, List[Tuple[float, float]]] = {}
    shims: Dict[str, _ServiceClass] = {}
    if observations:
        model.observe(observations[0])
    for index in range(len(observations) - 1):
        now, nxt = observations[index], observations[index + 1]
        for state in nxt.mix.classes:
            before = now.mix.get(state.name)
            if before is None or before.value is None or state.value is None:
                continue
            shim = shims.get(state.name)
            if shim is None:
                shim = _ServiceClass(state.name, state.kind)
                shims[state.name] = shim
            status = _Status(shim, before.limit, before.value)
            predicted = model.predict(status, state.limit, now.mix)
            errors.setdefault(state.name, []).append(
                (nxt.time, abs(state.value - predicted))
            )
        model.observe(nxt)
    return errors


def load_telemetry_records(path: str) -> List[Dict]:
    """Read record dicts from a JSONL file or every ``*.jsonl`` in a dir."""
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".jsonl"))
        if not names:
            raise ConfigurationError(
                "telemetry directory {!r} contains no .jsonl files".format(path)
            )
        records: List[Dict] = []
        for name in names:
            records.extend(load_telemetry_records(os.path.join(path, name)))
        return records
    if not os.path.exists(path):
        raise ConfigurationError("telemetry path {!r} does not exist".format(path))
    return TelemetryStore.load_jsonl(path)


def save_model(model: LearnedPerformanceModel, path: str, overwrite: bool = True) -> None:
    """Write a trained model as JSON (the ``repro train`` output)."""
    with open_export(path, overwrite) as handle:
        json.dump(model.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path: str) -> LearnedPerformanceModel:
    """Load a trained model written by :func:`save_model`."""
    if not os.path.exists(path):
        raise ConfigurationError("model file {!r} does not exist".format(path))
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise ConfigurationError(
                "model file {!r} is not valid JSON: {}".format(path, exc)
            )
    return LearnedPerformanceModel.from_dict(payload)
