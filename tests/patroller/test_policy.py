"""Tests for QP's static control policy (groups, priorities, cost limit)."""

import pytest

from repro.config import default_config
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Query, QueryState
from repro.errors import ConfigurationError
from repro.patroller.policy import (
    CostGroup,
    QPStaticPolicy,
    percentile_thresholds,
    standard_groups,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import patroller_with


def make_stack(release_latency=0.0):
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(seed=3))
    patroller = patroller_with(sim, engine, release_latency=release_latency)
    patroller.enable_for_class("class1")
    patroller.enable_for_class("class2")
    return sim, engine, patroller


def started_policy(*args, **kwargs):
    policy = QPStaticPolicy(*args, **kwargs)
    policy.start()
    return policy


def make_query(query_id, cost, class_name="class1", demand=10.0):
    return Query(
        query_id=query_id,
        class_name=class_name,
        client_id="c{}".format(query_id),
        template="t",
        kind="olap",
        phases=((CPU, demand),),
        true_cost=cost,
        estimated_cost=cost,
    )


class TestThresholds:
    def test_percentile_split(self):
        costs = list(range(1, 101))  # 1..100
        small_upper, medium_upper = percentile_thresholds(costs)
        assert medium_upper == pytest.approx(95.05, abs=0.5)
        assert small_upper == pytest.approx(80.2, abs=0.5)

    def test_standard_groups_cover_all_costs(self):
        groups = standard_groups([10.0, 20.0, 100.0, 1000.0])
        assert [g.name for g in groups] == ["small", "medium", "large"]
        for cost in (1.0, 50.0, 1e6):
            assert any(g.contains(cost) for g in groups)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            percentile_thresholds([])
        with pytest.raises(ConfigurationError):
            CostGroup("bad", 5.0, 5.0, 1).validate()
        with pytest.raises(ConfigurationError):
            CostGroup("bad", 0.0, 5.0, 0).validate()


class TestGlobalCostLimit:
    def test_release_up_to_limit_then_queue(self):
        sim, engine, patroller = make_stack()
        policy = started_policy(patroller, global_cost_limit=250.0)
        for query_id in (1, 2, 3):
            patroller.submit(make_query(query_id, 100.0))
        sim.run_until(1.0)
        assert policy.released == 2
        assert policy.queued == 1
        sim.run()  # completions free budget; the third releases
        assert policy.released == 3

    def test_oversized_query_runs_alone(self):
        sim, engine, patroller = make_stack()
        policy = started_policy(patroller, global_cost_limit=100.0)
        patroller.submit(make_query(1, 500.0))
        sim.run()
        assert policy.released == 1

    def test_oversized_query_waits_for_empty_system(self):
        sim, engine, patroller = make_stack()
        policy = started_policy(patroller, global_cost_limit=100.0)
        patroller.submit(make_query(1, 80.0, demand=5.0))
        patroller.submit(make_query(2, 500.0, demand=5.0))
        sim.run_until(1.0)
        assert policy.released == 1
        sim.run()
        assert policy.released == 2


class TestGroups:
    def test_group_slots_bind(self):
        sim, engine, patroller = make_stack()
        groups = [CostGroup("small", 0.0, 200.0, 1), CostGroup("large", 200.0, float("inf"), 1)]
        policy = started_policy(patroller, groups=groups)
        patroller.submit(make_query(1, 100.0))
        patroller.submit(make_query(2, 120.0))  # same group, slot taken
        patroller.submit(make_query(3, 500.0))  # other group, free slot
        sim.run_until(1.0)
        assert policy.released == 2
        assert policy.queued == 1
        assert policy.group_for(100.0).name == "small"
        assert policy.group_for(500.0).name == "large"

    def test_no_head_of_line_blocking_across_groups(self):
        sim, engine, patroller = make_stack()
        groups = [CostGroup("small", 0.0, 200.0, 1), CostGroup("large", 200.0, float("inf"), 1)]
        policy = started_policy(patroller, groups=groups)
        patroller.submit(make_query(1, 100.0))
        patroller.submit(make_query(2, 120.0))  # blocked: small slot busy
        patroller.submit(make_query(3, 500.0))  # must pass query 2
        sim.run_until(1.0)
        held_ids = [query.query_id for query in patroller.tables.open()
                    if query.state is QueryState.QUEUED]
        assert held_ids == [2]
        assert len(patroller.tables) == 3


class TestPriorities:
    def test_higher_priority_class_releases_first(self):
        sim, engine, patroller = make_stack()
        policy = started_policy(
            patroller,
            priorities={"class1": 1, "class2": 2},
            global_cost_limit=100.0,
        )
        order = []
        original_release = patroller.release

        def tracking_release(query):
            order.append(query.class_name)
            original_release(query)

        patroller.release = tracking_release
        # Fill the system so both queue, then watch release order.
        patroller.submit(make_query(1, 100.0, demand=2.0))
        patroller.submit(make_query(2, 100.0, class_name="class1", demand=1.0))
        patroller.submit(make_query(3, 100.0, class_name="class2", demand=1.0))
        sim.run()
        # Query 1 first (empty system), then class2 beats class1.
        assert order[0] == "class1"
        assert order[1] == "class2"
        assert order[2] == "class1"

    def test_fifo_within_same_priority(self):
        sim, engine, patroller = make_stack()
        policy = started_policy(patroller, global_cost_limit=100.0)
        order = []
        original_release = patroller.release
        patroller.release = lambda q: (order.append(q.query_id), original_release(q))
        for query_id in (1, 2, 3):
            patroller.submit(make_query(query_id, 100.0, demand=1.0))
        sim.run()
        assert order == [1, 2, 3]


def test_policy_ignores_bypassed_class_completions():
    sim, engine, patroller = make_stack()
    policy = started_policy(patroller, global_cost_limit=100.0)
    bypass = make_query(42, 100.0, class_name="class3")
    patroller.submit(bypass)  # class3 is not intercepted
    sim.run()
    assert policy.released == 0
    assert policy.in_flight_cost == 0.0


def test_cancel_inside_the_release_window_frees_cost_and_group_slot():
    """A statement cancelled after release but before execution never
    completes; its cost and group slot must not be held forever."""
    sim, engine, patroller = make_stack(release_latency=0.5)
    policy = started_policy(
        patroller,
        groups=[CostGroup("only", 0.0, 1_000.0, 1)],
        global_cost_limit=150.0,
    )
    first, second, third = (make_query(n, 100.0) for n in (1, 2, 3))
    for query in (first, second, third):
        patroller.submit(query)
    sim.run_until(0.1)
    assert first.state == QueryState.RELEASED
    assert second.state == third.state == QueryState.QUEUED
    # A queue-level cancel holds nothing: it must free nothing.
    assert patroller.cancel(third)
    assert second.state == QueryState.QUEUED
    assert policy.in_flight_cost == pytest.approx(100.0)
    # The released one's slot and budget go straight to the next in line.
    assert patroller.cancel(first)
    assert second.state == QueryState.RELEASED
    assert policy.in_flight_cost == pytest.approx(100.0)
    sim.run()
    assert second.state == QueryState.COMPLETED
    assert (policy.released, policy.in_flight_cost) == (2, 0.0)
    assert policy._group_of_query == {}
    assert policy._in_flight_by_group == {"only": 0}
