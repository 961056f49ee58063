"""Shared fixtures: small, fast simulation configurations.

Unit tests use hand-built micro-scenarios; integration tests use the
``quick_config`` fixture (short periods, few clients) so the whole suite
stays fast while still exercising the full pipeline.
"""

from __future__ import annotations

import random

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    SimulationConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.modeling import (
    ClassMixState,
    IntervalObservation,
    LearnedPerformanceModel,
    MixSnapshot,
)
from repro.core.dispatcher import Dispatcher
from repro.core.plan import SchedulingPlan
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
    paper_classes,
)
from repro.core.solver import ClassStatus
from repro.dbms.engine import DatabaseEngine
from repro.experiments.runner import ExperimentSpec
from repro.metrics.telemetry import ControlIntervalRecord, SolverTelemetry
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.schedule import PeriodSchedule, constant_schedule
from repro.workloads.spec import QueryFactory


def patroller_dispatcher(patroller, classes, plan, discipline="fifo"):
    """A dispatcher wired to a patroller the way the Query Scheduler wires
    it: gates the directly controlled classes, releases through QP's
    unblocking API, hears QP's completions and cancellations."""
    dispatcher = Dispatcher(
        classes,
        plan,
        release=patroller.release,
        clock=patroller.sim,
        gated=[c.name for c in classes if c.directly_controlled],
        discipline=discipline,
    )
    patroller.subscribe("completed", dispatcher.on_completion)
    patroller.subscribe("cancelled", dispatcher.on_cancellation)
    return dispatcher


def paper_smoke_spec(seed=7):
    """The Figure 3 replication run under ``qs`` at smoke scale: 3 classes,
    2 x 30 s, 15 s control interval (the benchmark's ``paper_qs`` smoke
    spec)."""
    return ExperimentSpec(
        controller="qs",
        config=default_config(
            seed=seed,
            scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2),
            monitor=MonitorConfig(snapshot_interval=7.5, response_time_window=30.0),
            planner=PlannerConfig(control_interval=15.0),
        ),
    )


def dense_smoke_spec(seed=7):
    """The control path with every per-interval observer on, at smoke scale:
    7 OLAP classes + OLTP, learned model, 1 s control interval, 2 x 20 s,
    strict invariants and tracing (the benchmark's ``control_dense`` smoke
    spec; attach a hub with ``run_spec(spec, hub=hub)``)."""
    classes = [
        ServiceClass(
            "olap{}".format(index + 1),
            "olap",
            VelocityGoal(round(0.30 + 0.05 * index, 2)),
            importance=1 + index % 3,
        )
        for index in range(7)
    ]
    classes.append(ServiceClass("oltp", "oltp", ResponseTimeGoal(0.25), importance=3))
    counts = {
        c.name: [1 + (period + index) % 2 for period in range(2)]
        for index, c in enumerate(classes[:-1])
    }
    counts["oltp"] = [1, 2]
    config = default_config(
        seed=seed,
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=0.5, response_time_window=10.0),
        planner=PlannerConfig(control_interval=1.0, model="learned"),
    )
    return ExperimentSpec(
        controller="qs",
        config=config,
        schedule=PeriodSchedule(20.0, counts),
        classes=classes,
        invariants="strict",
        tracing=True,
    )


class FailingToDict:
    """Stands in for a record / span / violation whose ``to_dict`` raises."""

    def to_dict(self):
        raise RuntimeError("to_dict failed")


def precious_target(path, existing: bool):
    """``path``, holding the text ``"precious"`` first when ``existing``."""
    if existing:
        path.write_text("precious")
    return path


def assert_export_untouched(path, existing: bool) -> None:
    """After a failed export: the target is absent (or still ``"precious"``)
    and no temp sibling is left in its directory."""
    assert [p.name for p in path.parent.iterdir()] == ([path.name] if existing else [])
    if existing:
        assert path.read_text() == "precious"


def decision_record(time: float, plan: SchedulingPlan) -> ControlIntervalRecord:
    """A bare control-interval record: just the decision, for feeding sinks
    that read only ``time`` and ``plan`` (the collector's plan hook)."""
    return ControlIntervalRecord(
        time=time,
        interval_index=0,
        trigger="scheduled",
        plan=plan,
        measurements={},
        predictions={},
        solver=SolverTelemetry(
            allocation=plan.as_dict(),
            objective=None,
            evaluations=0,
            solve_calls=0,
            oltp_slope=None,
            oltp_observations=None,
        ),
        dispatcher={},
    )


def make_mix(statuses, rng, time=0.0):
    """A random concurrent mix over the classes of ``statuses``."""
    return MixSnapshot(
        time=time,
        classes=tuple(
            ClassMixState(
                name=status.service_class.name,
                kind=status.service_class.kind,
                limit=status.current_limit,
                value=status.current_value,
                queue_length=rng.randint(0, 40),
                in_flight_count=rng.randint(0, 12),
                in_flight_cost=rng.uniform(0.0, 9_000.0),
            )
            for status in statuses
        ),
    )


def trained_model(statuses, seed, intervals=12):
    """A learned model with non-trivial weights for every class."""
    rng = random.Random(seed)
    model = LearnedPerformanceModel()
    for step in range(intervals):
        noisy = [
            ClassStatus(
                status.service_class,
                status.current_limit * rng.uniform(0.6, 1.4),
                status.current_value * rng.uniform(0.7, 1.3),
            )
            for status in statuses
        ]
        model.observe(
            IntervalObservation(float(step), make_mix(noisy, rng, float(step)))
        )
    return model


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> RandomStreams:
    return RandomStreams(seed=123)


@pytest.fixture
def quick_config() -> SimulationConfig:
    """A scaled-down configuration for integration tests."""
    return default_config(
        scale=WorkloadScaleConfig(period_seconds=40.0, num_periods=3),
        monitor=MonitorConfig(snapshot_interval=5.0, velocity_window=40.0,
                              response_time_window=20.0),
        planner=PlannerConfig(control_interval=20.0),
    )


@pytest.fixture
def engine(sim, quick_config, rng) -> DatabaseEngine:
    return DatabaseEngine(sim, quick_config, rng)


@pytest.fixture
def patroller(sim, engine, quick_config) -> QueryPatroller:
    return QueryPatroller(sim, engine, quick_config.patroller)


@pytest.fixture
def factory(engine, rng) -> QueryFactory:
    return QueryFactory(engine.estimator, rng)


@pytest.fixture
def three_classes():
    return list(paper_classes())


@pytest.fixture
def tiny_schedule():
    """Three 40-second periods with small client counts."""
    return constant_schedule(
        40.0, 3, {"class1": 2, "class2": 2, "class3": 8}
    )
