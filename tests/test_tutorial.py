"""Executable checks for docs/TUTORIAL.md code.

Documentation that doesn't run is worse than none; this mirrors the
tutorial's custom controller and workload-definition snippets and asserts
they behave as the text claims.
"""

from collections import deque

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
)
from repro.experiments.runner import build_bundle
from repro.validation import attach_harness
from repro.workloads.schedule import constant_schedule
from repro.workloads.spec import QueryTemplate, WorkloadMix


class RoundRobinController:
    """The tutorial's minimal fair-share controller, verbatim in spirit."""

    name = "round_robin"

    def __init__(self, patroller, classes):
        self.patroller = patroller
        self.queues = {c.name: deque() for c in classes if c.directly_controlled}
        self.busy = {name: False for name in self.queues}

    def start(self):
        self.patroller.intercept_only(self.queues)
        self.patroller.set_release_handler(self.on_intercepted)
        self.patroller.subscribe("completed", self.on_done)
        self.patroller.subscribe("cancelled", self.on_done)

    def describe(self):
        return "Round-robin, one statement per class"

    def on_intercepted(self, query):
        self.queues[query.class_name].append(query)
        self.pump(query.class_name)

    def on_done(self, query):
        if query.class_name in self.busy:
            self.busy[query.class_name] = False
            self.pump(query.class_name)

    def pump(self, name):
        if not self.busy[name] and self.queues[name]:
            self.busy[name] = True
            self.patroller.release(self.queues[name].popleft())


def tutorial_workloads():
    analytics = WorkloadMix("analytics", [
        QueryTemplate("rollup", "olap", cpu_demand=4.0, io_demand=8.0,
                      rounds=4, parallelism=2, weight=3.0),
        QueryTemplate("deep_scan", "olap", cpu_demand=9.0, io_demand=18.0,
                      rounds=4, parallelism=2, weight=1.0),
    ])
    checkout = WorkloadMix("checkout", [
        QueryTemplate("pay", "oltp", cpu_demand=0.012, io_demand=0.004),
    ])
    classes = [
        ServiceClass("analytics", "olap", VelocityGoal(0.5), importance=1),
        ServiceClass("checkout", "oltp", ResponseTimeGoal(0.2), importance=3),
    ]
    return analytics, checkout, classes


def test_custom_controller_runs_on_the_harness():
    analytics, checkout, classes = tutorial_workloads()
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2),
        monitor=MonitorConfig(snapshot_interval=5.0),
        planner=PlannerConfig(control_interval=15.0),
    )
    schedule = constant_schedule(30.0, 2, {"analytics": 3, "checkout": 6})
    bundle = build_bundle(
        config=config, schedule=schedule, classes=classes,
        mixes={"analytics": analytics, "checkout": checkout},
    )
    controller = RoundRobinController(bundle.patroller, bundle.classes)
    # The contract: name / start() / describe(), found as bundle.controller.
    bundle.controller = controller
    harness = attach_harness(bundle, mode="strict")
    controller.start()
    bundle.manager.start()
    bundle.run()
    assert controller.name == "round_robin"
    assert harness.checks_run == 4 and harness.violations == []
    assert bundle.patroller.intercepts("analytics")
    assert not bundle.patroller.intercepts("checkout")
    # One OLAP statement at a time, the OLTP class bypassing:
    assert bundle.engine.completed_queries > 50
    analytics_class = classes[0]
    velocities = bundle.collector.metric_series("analytics", "velocity")
    assert any(v is not None for v in velocities)
    assert controller.describe() == "Round-robin, one statement per class"
    # The single-slot release rule genuinely serialized the OLAP class.
    cell0 = bundle.collector.cell(0, "analytics")
    assert cell0 is None or cell0.completions <= 10


def test_tutorial_engine_probes_exist():
    """The measuring section's one-off probes are real API."""
    analytics, checkout, classes = tutorial_workloads()
    config = default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=1),
    )
    schedule = constant_schedule(20.0, 1, {"analytics": 1, "checkout": 2})
    bundle = build_bundle(config=config, schedule=schedule, classes=classes,
                          mixes={"analytics": analytics, "checkout": checkout})
    controller = RoundRobinController(bundle.patroller, bundle.classes)
    controller.start()
    bundle.manager.start()
    bundle.run()
    assert bundle.engine.executing_cost("analytics") >= 0.0
    assert bundle.engine.cpu.completed_jobs > 0
    assert bundle.engine.cpu.completed_demand > 0.0
    rt = bundle.engine.snapshot_monitor.average_response_time("checkout")
    assert rt is None or rt > 0.0
