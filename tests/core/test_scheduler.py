"""Tests for the Query Scheduler facade wiring."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.scheduler import QueryScheduler
from repro.core.service_class import ResponseTimeGoal, ServiceClass, paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.errors import SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.client import ClosedLoopClient
from repro.workloads.spec import QueryFactory
from repro.workloads.tpcc import tpcc_mix
from repro.workloads.tpch import tpch_mix
from tests.conftest import patroller_with


def make_scheduler():
    sim = Simulator()
    config = default_config(
        planner=PlannerConfig(control_interval=10.0),
        monitor=MonitorConfig(snapshot_interval=2.0),
    )
    engine = DatabaseEngine(sim, config, RandomStreams(17))
    patroller = patroller_with(sim, engine, interception_latency=0.05)
    classes = list(paper_classes())
    scheduler = QueryScheduler(sim, engine, patroller, classes, config)
    return sim, engine, patroller, scheduler


def test_interception_configuration():
    sim, engine, patroller, scheduler = make_scheduler()
    assert patroller.intercepts("class1")
    assert patroller.intercepts("class2")
    assert not patroller.intercepts("class3")


def test_initial_plan_even_split_by_default():
    sim, engine, patroller, scheduler = make_scheduler()
    assert scheduler.plan.limit("class1") == pytest.approx(10_000.0)
    assert scheduler.plan.total_allocated == pytest.approx(30_000.0)


def test_intercepted_query_lands_in_its_tagged_class_queue():
    """The submitter's class tag picks the queue: the dispatcher's per-class
    lookup is the paper's Classifier."""
    sim, engine, patroller, scheduler = make_scheduler()
    factory = QueryFactory(engine.estimator, RandomStreams(20))
    patroller.submit(factory.create(tpch_mix(), "class2", "c0"))
    sim.run_until(1.0)
    assert scheduler.dispatcher.class_accounting("class2").enqueued == 1
    assert scheduler.dispatcher.class_accounting("class1").enqueued == 0


def test_double_start_rejected():
    sim, engine, patroller, scheduler = make_scheduler()
    scheduler.start()
    with pytest.raises(SchedulingError):
        scheduler.start()


def test_no_classes_rejected():
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(1))
    patroller = QueryPatroller(sim, engine)
    with pytest.raises(SchedulingError):
        QueryScheduler(sim, engine, patroller, [], config)


def test_duplicate_class_names_rejected():
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(1))
    patroller = QueryPatroller(sim, engine)
    classes = list(paper_classes())
    with pytest.raises(SchedulingError, match="duplicate"):
        QueryScheduler(sim, engine, patroller, classes + [classes[0]], config)


def test_two_oltp_classes_rejected():
    """Indirect control reserves for and models one bypassing class."""
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(1))
    patroller = QueryPatroller(sim, engine)
    classes = [
        ServiceClass("a", "oltp", ResponseTimeGoal(0.2), 1),
        ServiceClass("b", "oltp", ResponseTimeGoal(0.3), 2),
    ]
    with pytest.raises(SchedulingError):
        QueryScheduler(sim, engine, patroller, classes, config)


def test_describe_mentions_configuration():
    sim, engine, patroller, scheduler = make_scheduler()
    text = scheduler.describe()
    assert "3 classes" in text
    assert "piecewise" in text


def test_end_to_end_flow_under_load():
    """OLAP queries flow intercept -> classify -> queue -> release -> engine,
    OLTP bypasses, and the planner re-plans periodically."""
    sim, engine, patroller, scheduler = make_scheduler()
    factory = QueryFactory(engine.estimator, RandomStreams(18))
    olap_mix, oltp_mix = tpch_mix(), tpcc_mix()
    clients = []
    for i in range(3):
        clients.append(ClosedLoopClient(patroller, factory, olap_mix,
                                        "class1", "c1-{}".format(i)))
    for i in range(6):
        clients.append(ClosedLoopClient(patroller, factory, oltp_mix,
                                        "class3", "c3-{}".format(i)))
    scheduler.start()
    for client in clients:
        client.activate()
    sim.run_until(60.0)
    assert patroller.intercepted_count > 0
    assert patroller.bypassed_count > 50
    assert scheduler.planner.intervals_run == 6
    assert engine.completed_queries > 50
    # The monitor produced at least the OLTP measurement.
    assert scheduler.monitor.measure("class3") is not None


class TestDetectionWiring:
    def test_enable_detection_attaches_and_triggers(self):
        sim, engine, patroller, scheduler = make_scheduler()
        scheduler.start()
        # Buckets close 5 s off the 10 s control intervals, so an early
        # re-plan is never within a quarter interval of a scheduled one.
        sim.run_until(5.0)
        detector = scheduler.enable_detection()
        assert scheduler.detector is detector
        factory = QueryFactory(engine.estimator, RandomStreams(19))
        mix = tpcc_mix()
        clients = [
            ClosedLoopClient(patroller, factory, mix, "class3",
                             "c{}".format(i))
            for i in range(3)
        ]
        # Quiet start, then a burst of clients -> rate shift -> early replan.
        sim.run_until(20.0)
        for client in clients:
            client.activate()
        sim.run_until(60.0)
        assert detector.buckets_seen >= 5
        assert len(detector.shifts) >= 1
        assert scheduler.planner.early_triggers >= 1

    def test_enable_detection_twice_rejected(self):
        sim, engine, patroller, scheduler = make_scheduler()
        scheduler.enable_detection()
        with pytest.raises(SchedulingError):
            scheduler.enable_detection()

    def test_enable_after_start_begins_immediately(self):
        sim, engine, patroller, scheduler = make_scheduler()
        scheduler.start()
        detector = scheduler.enable_detection()
        sim.run_until(21.0)
        assert detector.buckets_seen == 2
