"""Tests for closed-loop clients."""

import pytest

from repro.config import default_config
from repro.dbms.engine import DatabaseEngine
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.client import ClosedLoopClient
from repro.workloads.spec import QueryFactory, QueryTemplate, WorkloadMix
from tests.conftest import patroller_with


def make_world():
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(4))
    patroller = patroller_with(sim, engine)
    factory = QueryFactory(engine.estimator, RandomStreams(4))
    mix = WorkloadMix(
        "simple",
        [QueryTemplate("one", "oltp", cpu_demand=0.5, io_demand=0.5, variability=0.0)],
    )
    client = ClosedLoopClient(patroller, factory, mix, "class3", "c0")
    return sim, engine, client


def test_inactive_client_submits_nothing():
    sim, engine, client = make_world()
    sim.run_until(10.0)
    assert client.queries_submitted == 0


def test_closed_loop_one_in_flight():
    sim, engine, client = make_world()
    client.activate()
    sim.run_until(10.0)
    # Each query takes 1.0s (0.5 cpu + 0.5 io), zero think time.
    assert client.queries_completed == 10
    assert client.queries_submitted == client.queries_completed + (1 if client.busy else 0)
    assert engine.executing_queries <= 1


def test_zero_think_time_back_to_back():
    sim, engine, client = make_world()
    client.activate()
    sim.run_until(5.0)
    assert client.queries_completed == 5


def test_deactivate_finishes_current_query_then_stops():
    sim, engine, client = make_world()
    client.activate()
    sim.run_until(0.5)
    client.deactivate()
    sim.run_until(10.0)
    assert client.queries_completed == 1
    assert not client.busy


def test_reactivate_resumes():
    sim, engine, client = make_world()
    client.activate()
    sim.run_until(2.0)
    client.deactivate()
    sim.run_until(5.0)
    completed_while_paused = client.queries_completed
    client.activate()
    sim.run_until(8.0)
    assert client.queries_completed > completed_while_paused


def test_double_activate_does_not_double_submit():
    sim, engine, client = make_world()
    client.activate()
    client.activate()
    sim.run_until(3.0)
    assert client.queries_completed == 3


def test_completion_hook_fires():
    sim, engine, client = make_world()
    seen = []
    client.on_query_complete = lambda q: seen.append(q.query_id)
    client.activate()
    sim.run_until(3.0)
    assert len(seen) == 3


def test_client_tags_queries_with_its_class():
    sim, engine, client = make_world()
    seen = []
    client.on_query_complete = lambda q: seen.append((q.class_name, q.client_id))
    client.activate()
    sim.run_until(2.0)
    assert all(entry == ("class3", "c0") for entry in seen)


def make_pooled_world():
    """A real patroller/engine world driven by a ClientPoolManager whose
    schedule has a zero-client middle period (each query takes 1.0s)."""
    from repro.workloads.schedule import ClientPoolManager, PeriodSchedule

    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(4))
    patroller = patroller_with(sim, engine)
    factory = QueryFactory(engine.estimator, RandomStreams(4))
    mix = WorkloadMix(
        "simple",
        [QueryTemplate("one", "oltp", cpu_demand=0.5, io_demand=0.5, variability=0.0)],
    )

    def build(class_name, client_id):
        return ClosedLoopClient(patroller, factory, mix, class_name, client_id)

    schedule = PeriodSchedule(4.5, {"class3": [1, 0, 1]})
    manager = ClientPoolManager(sim, schedule, build)
    return sim, engine, manager


def test_pool_deactivation_mid_query_finishes_in_flight_only():
    """Regression: a client deactivated mid-statement finishes that one
    statement and submits nothing more until reactivated."""
    sim, engine, manager = make_pooled_world()
    manager.start()
    # Period boundary at t=4.5 lands mid-way through the client's 5th
    # 1.0s statement (submitted at t=4.0).
    sim.run_until(4.5)
    (client,) = manager.pool("class3")
    assert not client.active
    assert client.busy  # the in-flight statement is still running
    submitted_at_deactivation = client.queries_submitted

    sim.run_until(8.999)  # the idle period elapses (next starts at 9.0)
    assert client.queries_submitted == submitted_at_deactivation
    assert client.queries_completed == submitted_at_deactivation  # it finished
    assert not client.busy
    assert not client.active


def test_pool_reactivation_reuses_the_same_client():
    sim, engine, manager = make_pooled_world()
    manager.start()
    sim.run_until(4.5)
    (paused,) = manager.pool("class3")
    completed_while_paused = None

    sim.run_until(9.0)  # third period begins: count back to 1
    (resumed,) = manager.pool("class3")
    assert resumed is paused  # same object -> same client id
    assert resumed.client_id == "class3-c0"
    assert resumed.active
    completed_while_paused = resumed.queries_completed

    sim.run_until(12.0)
    assert resumed.queries_completed > completed_while_paused
