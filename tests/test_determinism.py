"""Determinism guarantees.

Every experiment must be exactly reproducible from its seed — the property
the whole evaluation leans on.  These tests pin it for every controller and
for the trace-replay path.
"""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.runner import CONTROLLER_NAMES, ExperimentSpec, run_spec
from repro.workloads.schedule import constant_schedule


def tiny_config(seed=13):
    return default_config(
        seed=seed,
        scale=WorkloadScaleConfig(period_seconds=25.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=12.0),
        planner=PlannerConfig(control_interval=12.0),
    )


def tiny_schedule():
    return constant_schedule(25.0, 2, {"class1": 2, "class2": 2, "class3": 6})


def fingerprint(result):
    """Everything observable about a run, as comparable structures."""
    series = {
        c.name: result.collector.performance_series(c) for c in result.classes
    }
    throughput = {
        c.name: result.collector.metric_series(c.name, "throughput")
        for c in result.classes
    }
    plans = [
        (time, tuple(sorted(limits.items())))
        for time, limits in result.collector._plan_points
    ]
    return (
        result.collector.total_completions,
        series,
        throughput,
        plans,
        result.bundle.sim.fired_events,
    )


@pytest.mark.parametrize("controller", CONTROLLER_NAMES)
def test_every_controller_is_seed_deterministic(controller):
    first = run_spec(ExperimentSpec(controller=controller, config=tiny_config(),
                           schedule=tiny_schedule()))
    second = run_spec(ExperimentSpec(controller=controller, config=tiny_config(),
                            schedule=tiny_schedule()))
    assert fingerprint(first) == fingerprint(second)


def test_seed_changes_every_controllers_outcome():
    for controller in ("none", "qs"):
        a = run_spec(ExperimentSpec(controller=controller, config=tiny_config(seed=1),
                           schedule=tiny_schedule()))
        b = run_spec(ExperimentSpec(controller=controller, config=tiny_config(seed=2),
                           schedule=tiny_schedule()))
        assert fingerprint(a) != fingerprint(b)


def test_trace_replay_is_deterministic():
    from repro.experiments.runner import build_bundle, make_controller
    from repro.workloads.trace import TraceRecorder, TraceReplayer

    def record():
        bundle = build_bundle(config=tiny_config(), schedule=tiny_schedule())
        recorder = TraceRecorder(bundle.sim, bundle.patroller)
        make_controller(bundle, "none").start()
        bundle.manager.start()
        bundle.run()
        return recorder.trace

    def replay(trace):
        bundle = build_bundle(config=tiny_config(), schedule=tiny_schedule())
        make_controller(bundle, "none").start()
        TraceReplayer(bundle.sim, bundle.patroller, bundle.factory, trace).start()
        bundle.run()
        return bundle.engine.completed_queries

    trace = record()
    assert trace.to_json() == record().to_json()
    assert replay(trace) == replay(trace)
