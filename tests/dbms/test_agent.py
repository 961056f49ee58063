"""Tests for the agent pool."""

import pytest

from repro.dbms.agent import AgentPool
from repro.dbms.query import CPU, Query
from repro.errors import SimulationError


def make_query(query_id):
    return Query(
        query_id=query_id,
        class_name="c",
        client_id="cl",
        template="t",
        kind="oltp",
        phases=((CPU, 0.1),),
        true_cost=10.0,
        estimated_cost=10.0,
    )


def pool_of(max_agents):
    pool = AgentPool()
    pool.max_agents = max_agents
    return pool


def test_grant_below_capacity_is_synchronous():
    pool = pool_of(2)
    granted = []
    assert pool.acquire(make_query(1), lambda q: granted.append(q.query_id))
    assert granted == [1]
    assert pool.active == 1


def test_overflow_queues_fifo():
    pool = pool_of(1)
    granted = []
    pool.acquire(make_query(1), lambda q: granted.append(q.query_id))
    assert not pool.acquire(make_query(2), lambda q: granted.append(q.query_id))
    assert not pool.acquire(make_query(3), lambda q: granted.append(q.query_id))
    assert pool.waiting == 2
    pool.release()
    assert granted == [1, 2]
    pool.release()
    assert granted == [1, 2, 3]
    assert pool.total_waits == 2


def test_release_without_waiters_frees_agent():
    pool = pool_of(1)
    pool.acquire(make_query(1), lambda q: None)
    assert pool.release() is None
    assert pool.active == 0


def test_release_hands_agent_directly_to_waiter():
    pool = pool_of(1)
    pool.acquire(make_query(1), lambda q: None)
    pool.acquire(make_query(2), lambda q: None)
    granted = pool.release()
    assert granted is not None and granted.query_id == 2
    assert pool.active == 1  # unchanged: agent moved to the waiter


def test_release_with_no_active_agents_raises():
    pool = pool_of(1)
    with pytest.raises(SimulationError):
        pool.release()


def test_peak_active_high_water_mark():
    pool = pool_of(5)
    for i in range(4):
        pool.acquire(make_query(i), lambda q: None)
    for _ in range(4):
        pool.release()
    assert pool.peak_active == 4
    assert pool.active == 0

