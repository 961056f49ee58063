"""Tests for the snapshot monitor."""

import pytest

from repro.dbms.query import CPU, Query
from repro.dbms.snapshot import SnapshotMonitor


def completed_query(query_id, client_id, class_name="class3", submit=0.0, finish=1.0):
    query = Query(
        query_id=query_id,
        class_name=class_name,
        client_id=client_id,
        template="t",
        kind="oltp",
        phases=((CPU, 0.1),),
        true_cost=10.0,
        estimated_cost=10.0,
    )
    query.submit_time = submit
    query.release_time = submit
    query.finish_time = finish
    return query


def test_records_last_statement_per_connection():
    monitor = SnapshotMonitor()
    monitor.record_completion(completed_query(1, "a", finish=1.0))
    monitor.record_completion(completed_query(2, "a", submit=1.0, finish=3.0))
    samples = monitor.snapshot()
    assert len(samples) == 1
    assert samples[0].response_time == pytest.approx(2.0)
    assert monitor.completions_seen == 2
    assert monitor.connections == 1


def test_snapshot_filters_by_class():
    monitor = SnapshotMonitor()
    monitor.record_completion(completed_query(1, "a", class_name="class3"))
    monitor.record_completion(completed_query(2, "b", class_name="class1"))
    assert len(monitor.snapshot(class_name="class3")) == 1
    assert len(monitor.snapshot(class_name="class1")) == 1
    assert len(monitor.snapshot(class_name="nope")) == 0


def test_snapshot_filters_stale_connections():
    monitor = SnapshotMonitor()
    monitor.record_completion(completed_query(1, "a", finish=1.0))
    monitor.record_completion(completed_query(2, "b", finish=50.0))
    fresh = monitor.snapshot(since=10.0)
    assert [s.client_id for s in fresh] == ["b"]


def test_average_response_time():
    monitor = SnapshotMonitor()
    monitor.record_completion(completed_query(1, "a", submit=0.0, finish=1.0))
    monitor.record_completion(completed_query(2, "b", submit=0.0, finish=3.0))
    assert monitor.average_response_time() == pytest.approx(2.0)


def test_average_response_time_is_a_plain_left_fold_on_every_python():
    # Builtin sum() is compensated on Python >= 3.12 (these would average
    # 0.5 there); the mean must not depend on the interpreter.
    monitor = SnapshotMonitor()
    for index, value in enumerate([1e16, 1.0, -1e16, 1.0]):
        monitor.record_completion(
            completed_query(index, "client{}".format(index), submit=0.0, finish=value)
        )
    assert monitor.average_response_time() == 0.25


def test_average_response_time_none_when_empty():
    monitor = SnapshotMonitor()
    assert monitor.average_response_time() is None
    monitor.record_completion(completed_query(1, "a", class_name="other"))
    assert monitor.average_response_time(class_name="class3") is None


def test_average_reflects_only_most_recent_per_client():
    monitor = SnapshotMonitor()
    monitor.record_completion(completed_query(1, "a", submit=0.0, finish=10.0))
    monitor.record_completion(completed_query(2, "a", submit=10.0, finish=10.5))
    assert monitor.average_response_time() == pytest.approx(0.5)


def test_average_response_time_is_the_mean_of_the_snapshot_samples():
    # Read straight off the kept statements: the same values, filters and
    # left fold as averaging snapshot()'s rows.
    monitor = SnapshotMonitor()
    for query_id, (client, class_name, submit, finish) in enumerate(
        [
            ("a", "class3", 0.0, 0.7),
            ("b", "class3", 0.1, 12.3),
            ("c", "class1", 0.2, 14.0),
            ("d", "class3", 5.0, 15.1),
        ]
    ):
        monitor.record_completion(
            completed_query(query_id, client, class_name, submit, finish)
        )
    for class_name, since in [(None, None), ("class3", None), ("class3", 10.0), (None, 13.0)]:
        samples = monitor.snapshot(class_name=class_name, since=since)
        expected = 0.0
        for sample in samples:
            expected += sample.response_time
        assert monitor.average_response_time(class_name, since) == expected / len(samples)
    assert monitor.average_response_time("class3", since=20.0) is None

