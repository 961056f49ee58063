"""Tests for the Query Patroller interception layer."""

import pytest

from repro.config import PatrollerConfig, default_config
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, IO, Query, QueryState
from repro.errors import PatrollerError
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_stack(patroller_config=None):
    sim = Simulator()
    config = default_config()
    if patroller_config is not None:
        config = config.with_updates(patroller=patroller_config)
    engine = DatabaseEngine(sim, config, RandomStreams(seed=2))
    patroller = QueryPatroller(sim, engine, config.patroller)
    return sim, engine, patroller


def make_query(query_id=1, class_name="class1"):
    return Query(
        query_id=query_id,
        class_name=class_name,
        client_id="c0",
        template="q1",
        kind="olap",
        phases=((CPU, 1.0), (IO, 1.0)),
        true_cost=100.0,
        estimated_cost=100.0,
    )


def test_bypass_goes_straight_to_engine():
    sim, engine, patroller = make_stack()
    query = make_query(class_name="class3")
    patroller.submit(query)
    sim.run()
    assert patroller.bypassed_count == 1
    assert patroller.intercepted_count == 0
    assert query.finish_time == pytest.approx(2.0)
    assert query.velocity == 1.0  # no hold, no overhead


def test_interception_blocks_until_release():
    sim, engine, patroller = make_stack()
    patroller.enable_for_class("class1")
    held = []
    patroller.set_release_handler(held.append)
    query = make_query()
    patroller.submit(query)
    sim.run()
    assert held == [query]
    assert query.state == QueryState.QUEUED
    assert query.finish_time is None
    assert patroller.held_queries == 1
    assert len(patroller.tables) == 1


def test_interception_latency_applied():
    config = PatrollerConfig(interception_latency=0.5, release_latency=0.0,
                             overhead_cpu_demand=0.0)
    sim, engine, patroller = make_stack(config)
    patroller.enable_for_class("class1")
    patroller.set_release_handler(lambda q: None)
    query = make_query()
    patroller.submit(query)
    sim.run()
    assert query.intercept_time == pytest.approx(0.5)


def test_release_executes_and_marks_tables():
    sim, engine, patroller = make_stack()
    patroller.enable_for_class("class1")
    patroller.set_release_handler(lambda q: None)
    query = make_query()
    patroller.submit(query)
    sim.run()
    patroller.release(query)
    sim.run()
    assert query.state == QueryState.COMPLETED
    assert patroller.held_queries == 0
    assert patroller.tables.find(query.query_id) is None
    assert patroller.tables.counts_by_status() == {"completed": 1}


def test_release_latency_counts_as_execution_time():
    config = PatrollerConfig(interception_latency=0.2, release_latency=0.3,
                             overhead_cpu_demand=0.0)
    sim, engine, patroller = make_stack(config)
    patroller.enable_for_class("class1")
    patroller.set_release_handler(lambda q: None)
    query = make_query()
    patroller.submit(query)
    sim.run()
    release_at = sim.now
    patroller.release(query)
    sim.run()
    assert query.release_time == pytest.approx(release_at)
    # Execution = release latency + 2s of phases.
    assert query.execution_time == pytest.approx(0.3 + 2.0)


def test_interception_overhead_charged_to_statement():
    config = PatrollerConfig(interception_latency=0.0, release_latency=0.0,
                             overhead_cpu_demand=0.25)
    sim, engine, patroller = make_stack(config)
    patroller.enable_for_class("class1")
    patroller.set_release_handler(patroller.release)  # release immediately
    query = make_query()
    patroller.submit(query)
    sim.run()
    # 0.25 overhead + 1.0 CPU + 1.0 IO.
    assert query.execution_time == pytest.approx(2.25)
    assert query.cpu_demand == pytest.approx(1.25)


def test_release_unknown_query_rejected():
    sim, engine, patroller = make_stack()
    with pytest.raises(PatrollerError):
        patroller.release(make_query())


def test_double_release_rejected():
    sim, engine, patroller = make_stack()
    patroller.enable_for_class("class1")
    patroller.set_release_handler(lambda q: None)
    query = make_query()
    patroller.submit(query)
    sim.run()
    patroller.release(query)
    with pytest.raises(PatrollerError):
        patroller.release(query)


def test_interception_without_handler_raises():
    sim, engine, patroller = make_stack()
    patroller.enable_for_class("class1")
    patroller.submit(make_query())
    with pytest.raises(PatrollerError):
        sim.run()


def test_enable_disable_class():
    sim, engine, patroller = make_stack()
    patroller.enable_for_class("class1")
    assert patroller.intercepts("class1")
    patroller.disable_for_class("class1")
    assert not patroller.intercepts("class1")
    query = make_query()
    patroller.submit(query)
    sim.run()
    assert patroller.bypassed_count == 1


def test_oltp_interception_overhead_dominates_sub_second_query():
    """Section 3: interception overhead outweighs OLTP execution time."""
    config = PatrollerConfig()  # defaults: 0.2s latency + 0.05 release + 0.03 cpu
    sim, engine, patroller = make_stack(config)
    patroller.enable_for_class("class3")
    patroller.set_release_handler(patroller.release)
    query = Query(
        query_id=1,
        class_name="class3",
        client_id="c0",
        template="payment",
        kind="oltp",
        phases=((CPU, 0.012), (IO, 0.004)),
        true_cost=30.0,
        estimated_cost=30.0,
    )
    patroller.submit(query)
    sim.run()
    bare_execution = 0.012 + 0.004
    overhead = query.response_time - bare_execution
    assert overhead > 5 * bare_execution


def test_overhead_phase_is_a_real_phase_row():
    config = PatrollerConfig(interception_latency=0.0, release_latency=0.0,
                             overhead_cpu_demand=0.25)
    sim, engine, patroller = make_stack(config)
    patroller.enable_for_class("class1")
    patroller.set_release_handler(lambda q: None)
    query = make_query()
    patroller.submit(query)
    sim.run()
    overhead = query.phases[0]
    assert type(overhead) is tuple
    assert overhead == (CPU, 0.25)


class TestRoutedSubscribers:
    """``subscribe(event, listener, classes)`` delivers only those classes."""

    def run_statements(self, patroller, sim, class_names):
        for query_id, class_name in enumerate(class_names, start=1):
            patroller.submit(make_query(query_id, class_name))
        sim.run()

    def test_a_routed_listener_hears_only_its_classes(self):
        sim, engine, patroller = make_stack()
        heard = {"all": [], "olap": [], "class3": []}
        patroller.subscribe("completed", lambda q: heard["all"].append(q.query_id))
        patroller.subscribe(
            "completed", lambda q: heard["olap"].append(q.query_id), ["class1", "class2"]
        )
        patroller.subscribe(
            "submitted", lambda q: heard["class3"].append(q.query_id), classes=("class3",)
        )
        self.run_statements(patroller, sim, ["class1", "class3", "class2", "class3"])
        assert sorted(heard["all"]) == [1, 2, 3, 4]
        assert sorted(heard["olap"]) == [1, 3]
        assert heard["class3"] == [2, 4]

    def test_each_class_hears_its_listeners_in_subscription_order(self):
        sim, engine, patroller = make_stack()
        calls = []
        patroller.subscribe("completed", lambda q: calls.append(("a", q.class_name)), ["class3"])
        patroller.subscribe("completed", lambda q: calls.append(("b", q.class_name)))
        patroller.subscribe("completed", lambda q: calls.append(("c", q.class_name)), ["class1", "class3"])
        self.run_statements(patroller, sim, ["class3"])
        self.run_statements(patroller, sim, ["class1"])
        self.run_statements(patroller, sim, ["class2"])
        assert calls == [
            ("a", "class3"), ("b", "class3"), ("c", "class3"),
            ("b", "class1"), ("c", "class1"),
            ("b", "class2"),
        ]

    def test_a_subscription_after_the_first_event_takes_effect(self):
        # The per-class listener tuples are built on first use; a later
        # subscription must not be hidden behind one already built.
        sim, engine, patroller = make_stack()
        early, late, late_routed = [], [], []
        patroller.subscribe("completed", early.append)
        self.run_statements(patroller, sim, ["class3"])
        patroller.subscribe("completed", late.append)
        patroller.subscribe("completed", late_routed.append, {"class3"})
        self.run_statements(patroller, sim, ["class3", "class1"])
        assert [q.class_name for q in early] == ["class3", "class3", "class1"]
        assert [q.class_name for q in late] == ["class3", "class1"]
        assert [q.class_name for q in late_routed] == ["class3"]

    def test_an_unknown_event_is_one_patroller_error(self):
        sim, engine, patroller = make_stack()
        with pytest.raises(PatrollerError, match="unknown lifecycle event 'finished'"):
            patroller.subscribe("finished", lambda q: None)
        with pytest.raises(PatrollerError, match="unknown lifecycle event 'finished'"):
            patroller.subscribe("finished", lambda q: None, ["class1"])
        with pytest.raises(PatrollerError, match="unknown lifecycle event"):
            patroller.wrap_subscriber("finished", print, lambda inner: inner)

    def test_a_class_name_string_is_not_a_class_set(self):
        sim, engine, patroller = make_stack()
        with pytest.raises(PatrollerError, match="collection of class names"):
            patroller.subscribe("completed", lambda q: None, "class1")

    def test_a_wrapper_hears_every_statement_and_the_wrapped_only_its_own(self):
        sim, engine, patroller = make_stack()
        inner_heard, wrapper_heard = [], []

        def listener(query):
            inner_heard.append(query.class_name)

        def wrap(inner):
            def wrapper(query):
                wrapper_heard.append(query.class_name)
                inner(query)

            return wrapper

        patroller.subscribe("completed", listener, ["class1"])
        patroller.wrap_subscriber("completed", listener, wrap)
        self.run_statements(patroller, sim, ["class1", "class3"])
        assert wrapper_heard == ["class1", "class3"]
        assert inner_heard == ["class1"]
        # Wrapping again finds the place by the original listener.
        patroller.wrap_subscriber("completed", listener, wrap)
        self.run_statements(patroller, sim, ["class3"])
        assert wrapper_heard == ["class1", "class3", "class3", "class3"]
        assert inner_heard == ["class1"]

    def test_wrapping_a_listener_that_is_not_subscribed_fails(self):
        sim, engine, patroller = make_stack()
        patroller.subscribe("cancelled", print)
        with pytest.raises(PatrollerError, match="not subscribed"):
            patroller.wrap_subscriber("completed", print, lambda inner: inner)
