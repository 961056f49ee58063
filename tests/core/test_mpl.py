"""Tests for the MPL-based admission control extension."""

import pytest

from repro.config import PatrollerConfig, default_config
from repro.core.mpl import MPLController
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Query, QueryState
from repro.errors import ConfigurationError, SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_stack(initial_mpl=2, control_interval=10.0, release_latency=0.0):
    sim = Simulator()
    config = default_config(
        patroller=PatrollerConfig(interception_latency=0.0,
                                  release_latency=release_latency,
                                  overhead_cpu_demand=0.0)
    )
    engine = DatabaseEngine(sim, config, RandomStreams(23))
    patroller = QueryPatroller(sim, engine, config.patroller)
    classes = list(paper_classes())
    controller = MPLController(
        sim, patroller, engine, classes,
        initial_mpl=initial_mpl, control_interval=control_interval,
    )
    return sim, engine, patroller, controller


_qid = [1000]


def olap_query(class_name="class1", demand=5.0):
    _qid[0] += 1
    return Query(
        query_id=_qid[0],
        class_name=class_name,
        client_id="c",
        template="t",
        kind="olap",
        phases=((CPU, demand),),
        true_cost=1_000.0,
        estimated_cost=1_000.0,
    )


def oltp_query(demand=0.02):
    _qid[0] += 1
    return Query(
        query_id=_qid[0],
        class_name="class3",
        client_id="oltp-{}".format(_qid[0]),
        template="t",
        kind="oltp",
        phases=((CPU, demand),),
        true_cost=30.0,
        estimated_cost=30.0,
    )


def test_mpl_caps_concurrency_per_class():
    sim, engine, patroller, controller = make_stack(initial_mpl=2)
    controller.start()
    for _ in range(5):
        patroller.submit(olap_query())
    sim.run_until(1.0)
    assert engine.executing_queries == 2
    # 5 queries of 5s CPU, 2 at a time on 2 idle CPUs: done well before 40s.
    sim.run_until(40.0)
    assert engine.completed_queries == 5


def test_mpl_is_cost_blind():
    """Unlike cost-based control, one monster counts the same as one mouse."""
    sim, engine, patroller, controller = make_stack(initial_mpl=2)
    controller.start()
    big = olap_query(demand=5.0)
    big.estimated_cost = 1e9
    patroller.submit(big)
    patroller.submit(olap_query(demand=5.0))
    sim.run_until(1.0)
    assert engine.executing_queries == 2


def test_aimd_decreases_on_oltp_violation():
    sim, engine, patroller, controller = make_stack(initial_mpl=8, control_interval=5.0)
    controller.start()
    # Complete a slow OLTP statement so the snapshot shows a violation.
    bad = oltp_query(demand=2.0)  # 2s >> 0.25s goal
    bad.submit_time = 0.0
    engine.execute(bad)
    sim.run_until(6.0)
    assert controller.mpl["class1"] == 4  # halved
    sim.run_until(11.0)
    assert controller.mpl["class1"] == 2  # halved again (stale but recent sample)


def test_aimd_increases_when_goals_met():
    sim, engine, patroller, controller = make_stack(initial_mpl=2, control_interval=5.0)
    controller.start()
    good = oltp_query(demand=0.01)
    good.submit_time = 0.0
    engine.execute(good)
    sim.run_until(6.0)
    assert controller.mpl["class1"] == 3  # +1


def test_no_snapshot_data_no_adjustment():
    sim, engine, patroller, controller = make_stack(initial_mpl=4, control_interval=5.0)
    controller.start()
    sim.run_until(16.0)
    assert controller.mpl["class1"] == 4
    assert controller.adjustments == 0


def test_mpl_never_below_min():
    sim, engine, patroller, controller = make_stack(initial_mpl=2, control_interval=5.0)
    controller.start()
    bad = oltp_query(demand=2.0)
    bad.submit_time = 0.0
    engine.execute(bad)
    sim.run_until(50.0)
    assert controller.mpl["class1"] >= controller.min_mpl


def test_unmanaged_class_query_rejected():
    sim, engine, patroller, controller = make_stack()
    controller.start()
    stray = olap_query(class_name="ghost")
    patroller.enable_for_class("ghost")
    patroller.submit(stray)
    with pytest.raises(SchedulingError):
        sim.run_until(1.0)


def test_double_start_rejected():
    sim, engine, patroller, controller = make_stack()
    controller.start()
    with pytest.raises(SchedulingError):
        controller.start()


def test_invalid_parameters():
    sim, engine, patroller, _ = make_stack()
    classes = list(paper_classes())
    with pytest.raises(ConfigurationError):
        MPLController(sim, patroller, engine, classes, initial_mpl=0)
    with pytest.raises(ConfigurationError):
        MPLController(sim, patroller, engine, classes, decrease_factor=1.5)
    with pytest.raises(ConfigurationError):
        MPLController(sim, patroller, engine, classes, control_interval=0.0)


def test_cancel_inside_the_release_window_frees_the_mpl_slot():
    """A statement cancelled after release but before execution never
    completes; its MPL slot must not be held forever."""
    sim, engine, patroller, controller = make_stack(
        initial_mpl=1, control_interval=1_000.0, release_latency=0.5
    )
    controller.start()
    first, second, third = olap_query(), olap_query(), olap_query()
    for query in (first, second, third):
        patroller.submit(query)
    sim.run_until(0.1)
    assert first.state == QueryState.RELEASED
    assert second.state == third.state == QueryState.QUEUED
    # A queue-level cancel holds no slot: nothing may be released for it.
    assert patroller.cancel(third)
    assert second.state == QueryState.QUEUED
    assert patroller.cancel(first)
    assert second.state == QueryState.RELEASED
    sim.run_until(100.0)
    assert second.state == QueryState.COMPLETED
    assert controller._executing == {"class1": 0, "class2": 0}
