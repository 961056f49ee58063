"""Publisher hooks: from the live control loop into a TelemetryHub.

A :class:`RunPublisher` is attached to one deployment (one shard, or the
single unsharded run) and bridges the existing observability instruments
onto the hub's wire protocol:

* the controller's plan listener → one ``interval`` event per control
  interval, carrying the
  :class:`~repro.metrics.telemetry.ControlIntervalRecord` it was handed
  (itself; the hub renders it at the wire) plus per-class progress, a
  :class:`~repro.metrics.telemetry.ClassRows` view whose rows are
  :func:`class_progress` dicts;
* the (optional) :class:`~repro.obs.QueryTracer` → a ``spans`` event per
  interval with the slowest spans that finished since the previous one
  (a span still open at the boundary is published once it closes);
* run completion → a ``run_end`` event with final attainment.

Everything here is read-only over the run's state: no RNG draws, no
timer scheduling, no mutation of any component — a run with publishers
attached is bit-identical to the same run without them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.metrics.telemetry import ClassRows
from repro.obs.live.hub import TelemetryHub

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationConfig
    from repro.core.service_class import PerformanceGoal, ServiceClass
    from repro.experiments.runner import ExperimentResult, SimulationBundle
    from repro.metrics.telemetry import ControlIntervalRecord
    from repro.obs.spans import Span
    from repro.obs.tracer import QueryTracer
    from repro.workloads.schedule import PeriodSchedule

#: Slowest spans carried per ``spans`` event.
SPANS_PER_EVENT = 8


def class_progress(completions: int, attainment: float, goal: "PerformanceGoal") -> Dict:
    """One class's progress row in an ``interval`` event, as the wire
    carries it."""
    return {
        "completions": completions,
        "attainment": attainment,
        "goal_metric": goal.metric,
        "goal_target": goal.target,
    }


def run_start_data(
    controller: str,
    backend: str,
    config: "SimulationConfig",
    schedule: "PeriodSchedule",
    classes: Sequence["ServiceClass"],
) -> Dict:
    """The ``snapshot`` event payload describing one deployment; a fleet's
    adds its shard layout."""
    return {
        "controller": controller,
        "backend": backend,
        "seed": config.seed,
        "system_cost_limit": config.system_cost_limit,
        "control_interval": config.planner.control_interval,
        "periods": schedule.num_periods,
        "period_seconds": schedule.period_seconds,
        "horizon": schedule.horizon,
        "classes": [
            {
                "name": c.name,
                "kind": c.kind,
                "goal_metric": c.goal.metric,
                "goal_target": c.goal.target,
                "importance": c.importance,
            }
            for c in classes
        ],
    }


class RunPublisher:
    """Publishes one deployment's live telemetry into a hub."""

    def __init__(
        self,
        hub: TelemetryHub,
        bundle: "SimulationBundle",
        controller: object,
        shard: Optional[int] = None,
        tracer: Optional["QueryTracer"] = None,
    ) -> None:
        self.hub = hub
        self.bundle = bundle
        self.controller = controller
        self.shard = shard
        self.tracer = tracer
        self._spans_seen = 0
        #: Traced spans seen at an earlier boundary that had not closed yet.
        self._open_spans: List["Span"] = []
        self.intervals_published = 0
        #: The class set's name -> position index, shared by every event.
        self._class_index = {c.name: i for i, c in enumerate(bundle.classes)}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> bool:
        """Register the per-interval hook on the controller's planner.

        Returns whether interval events will flow — controllers without a
        planner (the static baselines) publish only start/end events.
        """
        planner = getattr(self.controller, "planner", None)
        if planner is None:
            return False
        planner.add_plan_listener(self.on_plan)
        registry = getattr(self.controller, "registry", None)
        if registry is not None:
            self.hub.register_registry(registry, shard=self.shard)
        return True

    # ------------------------------------------------------------------
    # Event assembly
    # ------------------------------------------------------------------
    def _class_progress(self) -> ClassRows:
        """Each class's completions and attainment now, beside its goal
        (one flat tuple; the goals are the classes' own objects)."""
        collector = self.bundle.collector
        completions = collector.class_completions
        fields: List[object] = []
        for service_class in self.bundle.classes:
            fields += (
                completions.get(service_class.name, 0),
                collector.goal_attainment(service_class),
                service_class.goal,
            )
        return ClassRows(self._class_index, class_progress, tuple(fields))

    def on_plan(self, record: "ControlIntervalRecord") -> None:
        """Plan-listener hook: publish this control interval."""
        data = {
            "classes": self._class_progress(),
            "total_completions": self.bundle.collector.total_completions,
        }
        self.hub.publish(
            "interval", data, time=record.time, shard=self.shard, record=record
        )
        self.intervals_published += 1
        self._publish_recent_spans(record.time)

    def _publish_recent_spans(self, now: float) -> None:
        if self.tracer is None:
            return
        new = self.tracer.spans_from(self._spans_seen)
        self._spans_seen += len(new)
        candidates = self._open_spans + [
            s for s in new if s.phase in ("queue_wait", "execute")
        ]
        self._open_spans = [s for s in candidates if s.end is None]
        finished = [s for s in candidates if s.end is not None]
        if not finished:
            return
        finished.sort(key=lambda s: s.duration, reverse=True)
        payload: List[Dict] = [
            {
                "query_id": s.query_id,
                "class": s.class_name,
                "phase": s.phase,
                "duration": s.duration,
                "begin": s.begin,
                "end": s.end,
                "estimated_cost": s.estimated_cost,
                "period": s.period,
            }
            for s in finished[:SPANS_PER_EVENT]
        ]
        self.hub.publish("spans", {"slowest": payload}, time=now, shard=self.shard)

    def publish_start(self) -> None:
        """Publish the run-metadata ``snapshot`` event (unsharded runs)."""
        controller_name = getattr(self.controller, "name", type(self.controller).__name__)
        bundle = self.bundle
        self.hub.publish(
            "snapshot",
            run_start_data(
                controller_name,
                bundle.backend,
                bundle.config,
                bundle.schedule,
                bundle.classes,
            ),
            time=0.0,
            shard=self.shard,
        )

    def publish_end(self, result: "ExperimentResult") -> None:
        """Publish this deployment's final ``run_end`` event."""
        data = {
            "controller": result.controller_name,
            "attainment": result.goal_attainment(),
            "completions": result.collector.completions_by_class(),
            "total_completions": result.collector.total_completions,
            "intervals": self.intervals_published,
        }
        self.hub.publish(
            "run_end",
            data,
            time=self.bundle.schedule.horizon,
            shard=self.shard,
        )
