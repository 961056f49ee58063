"""Tests for the QP control tables."""

import pytest

from repro.dbms.query import CPU, Query, QueryState
from repro.errors import PatrollerError
from repro.patroller.tables import ControlTables


def intercepted(query_id, state=QueryState.QUEUED):
    query = Query(
        query_id=query_id,
        class_name="class1",
        client_id="c0",
        template="q1",
        kind="olap",
        phases=((CPU, 1.0),),
        true_cost=100.0,
        estimated_cost=100.0,
    )
    query.state = state
    return query


def test_interception_creates_queued_record():
    tables = ControlTables()
    query = intercepted(1)
    tables.record(query)
    assert len(tables) == 1
    assert tables.find(1) is query
    assert list(tables.open()) == [query]
    assert tables.counts_by_status() == {"queued": 1}


def test_duplicate_interception_rejected():
    tables = ControlTables()
    tables.record(intercepted(1))
    with pytest.raises(PatrollerError):
        tables.record(intercepted(1))


def test_status_transitions():
    # A row's status is its statement's state; closing it counts the
    # terminal state and leaves the open rows.
    tables = ControlTables()
    query = intercepted(1)
    tables.record(query)
    query.state = QueryState.RELEASED
    assert tables.counts_by_status() == {"released": 1}
    query.state = QueryState.COMPLETED
    tables.close(query)
    assert tables.find(1) is None
    assert list(tables.open()) == []
    assert len(tables) == 1
    assert tables.counts_by_status() == {"completed": 1}


def test_illegal_transitions_rejected():
    # Closing a statement with no open row (never intercepted, or already
    # closed) changes nothing: a row ends exactly once.
    tables = ControlTables()
    query = intercepted(1, QueryState.CANCELLED)
    tables.close(query)
    assert len(tables) == 0
    tables.record(query)
    tables.close(query)
    tables.close(query)
    assert tables.counts_by_status() == {"cancelled": 1}


def test_unknown_query_rejected():
    tables = ControlTables()
    assert tables.find(99) is None
    assert tables.counts_by_status() == {}


def test_queued_listing_and_status_counts():
    tables = ControlTables()
    rows = [intercepted(query_id) for query_id in (1, 2, 3)]
    for query in rows:
        tables.record(query)
    rows[1].state = QueryState.COMPLETED
    tables.close(rows[1])
    rows[2].state = QueryState.EXECUTING
    assert [q.query_id for q in tables.open()] == [1, 3]  # interception order
    assert tables.counts_by_status() == {
        "queued": 1,
        "completed": 1,
        "executing": 1,
    }
