"""Tests for the Monitor's measurement paths."""

import random

import pytest

from repro.config import MonitorConfig, default_config
from repro.core.monitor import MAX_MEASUREMENT_AGE, VELOCITY_WINDOW, Monitor
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, IO, Query
from repro.errors import PatrollerError, SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import patroller_with


def make_world(snapshot_interval=5.0, rt_window=30.0):
    sim = Simulator()
    config = default_config(
        monitor=MonitorConfig(
            snapshot_interval=snapshot_interval, response_time_window=rt_window
        ),
    )
    engine = DatabaseEngine(sim, config, RandomStreams(11))
    patroller = patroller_with(sim, engine)
    patroller.enable_for_class("class1")
    patroller.set_release_handler(lambda query: None)  # hold until released
    classes = list(paper_classes())
    monitor = Monitor(sim, engine, patroller.tables, classes, config.monitor)
    patroller.subscribe("completed", monitor.on_completed)
    return sim, engine, patroller, monitor


_qid = [0]


def make_query(class_name="class1", kind="olap", demand=1.0):
    _qid[0] += 1
    return Query(
        query_id=_qid[0],
        class_name=class_name,
        client_id="client-{}".format(_qid[0]),
        template="t",
        kind=kind,
        phases=((CPU, demand / 2), (IO, demand / 2)),
        true_cost=100.0,
        estimated_cost=100.0,
    )


def run_query_with_wait(sim, patroller, wait, demand=10.0):
    """Submit through QP at now, hold for `wait`, release; returns the query."""
    query = make_query(demand=demand)
    patroller.submit(query)
    sim.schedule(wait, lambda: patroller.release(query))
    return query


class TestVelocityMeasurement:
    def test_completed_queries_define_velocity(self):
        sim, engine, patroller, monitor = make_world()
        query = run_query_with_wait(sim, patroller, wait=10.0, demand=10.0)
        sim.run()
        measurement = monitor.measure("class1")
        assert measurement is not None
        assert measurement.metric == "velocity"
        # 10s execution / 20s response.
        assert measurement.value == pytest.approx(0.5, abs=0.05)

    def test_no_data_returns_none(self):
        sim, engine, patroller, monitor = make_world()
        assert monitor.measure("class1") is None

    def test_in_flight_blend_sees_queue_pressure(self):
        sim, engine, patroller, monitor = make_world()
        # A query stuck in queue for 30s with no execution at all.
        patroller.submit(make_query())
        sim.run_until(30.0)
        measurement = monitor.measure("class1")
        assert measurement is not None
        assert measurement.value == pytest.approx(0.0, abs=0.01)

    def test_young_in_flight_queries_excluded(self):
        sim, engine, patroller, monitor = make_world()
        patroller.submit(make_query())
        sim.run_until(1.0)  # younger than MIN_IN_FLIGHT_AGE
        assert monitor.measure("class1") is None

    def test_old_completions_age_out_but_last_measurement_kept(self):
        sim, engine, patroller, monitor = make_world()
        run_query_with_wait(sim, patroller, wait=5.0, demand=5.0)
        sim.run()
        first = monitor.measure("class1")
        assert first is not None
        sim.run_until(sim.now + VELOCITY_WINDOW + 1.0)
        # Window empty now; measure() returns the retained last measurement.
        second = monitor.measure("class1")
        assert second is not None
        assert second.measured_at == first.measured_at

    def test_retained_measurement_expires_past_max_age(self):
        """Regression: the last-measurement fallback must not feed the
        solver an arbitrarily stale value forever."""
        sim, engine, patroller, monitor = make_world()
        run_query_with_wait(sim, patroller, wait=5.0, demand=5.0)
        sim.run()
        first = monitor.measure("class1")
        assert first is not None
        sim.run_until(sim.now + VELOCITY_WINDOW + 1.0)  # the window ran dry
        assert monitor.measure("class1") is not None  # still fresh enough
        sim.run_until(first.measured_at + MAX_MEASUREMENT_AGE + 1.0)
        assert monitor.measure("class1") is None
        # The expired entry is dropped outright, not merely masked.
        assert monitor.retained_measurement("class1") is None

    def test_retained_measurement_is_a_pure_read(self):
        sim, engine, patroller, monitor = make_world()
        assert monitor.retained_measurement("class1") is None
        run_query_with_wait(sim, patroller, wait=5.0, demand=5.0)
        sim.run()
        first = monitor.measure("class1")
        assert monitor.retained_measurement("class1") == first
        with pytest.raises(SchedulingError):
            monitor.retained_measurement("ghost")


    def test_velocity_mean_is_a_plain_left_fold_on_every_python(self):
        # The solver plans from this value; builtin sum() is compensated
        # on Python >= 3.12 and would give 0.5 for the first window.
        sim, engine, patroller, monitor = make_world()
        window = monitor._velocity_samples["class1"]
        for value in (1e16, 1.0, -1e16, 1.0):
            window.add(0.0, value)
        assert monitor.measure("class1").value == 0.25
        rng = random.Random(5)
        velocities = [rng.random() for _ in range(window.capacity)]
        for value in velocities:
            window.add(0.0, value)
        expected = 0.0
        for value in velocities:
            expected = expected + value
        assert monitor.measure("class1").value == expected / len(velocities)


class TestResponseTimeMeasurement:
    def test_snapshot_sampling_averages_clients(self):
        sim, engine, patroller, monitor = make_world(snapshot_interval=5.0)
        monitor.start()
        for demand in (0.2, 0.4):
            query = make_query(class_name="class3", kind="oltp", demand=demand)
            query.submit_time = 0.0
            query.release_time = 0.0
            engine.execute(query)
        sim.run_until(20.0)
        measurement = monitor.measure("class3")
        assert measurement is not None
        assert measurement.metric == "response_time"
        assert measurement.value == pytest.approx(0.3, abs=0.05)
        assert monitor.snapshots_taken == 4

    def test_no_snapshots_before_start(self):
        sim, engine, patroller, monitor = make_world()
        query = make_query(class_name="class3", kind="oltp", demand=0.2)
        query.submit_time = 0.0
        engine.execute(query)
        sim.run_until(20.0)
        assert monitor.snapshots_taken == 0
        assert monitor.measure("class3") is None

    def test_double_start_rejected(self):
        sim, engine, patroller, monitor = make_world()
        monitor.start()
        with pytest.raises(SchedulingError):
            monitor.start()


class TestWiring:
    def test_on_intercepted_forwards(self):
        """An intercepted statement reaches QP's release handler and is an
        open control-table row, which is what the Monitor counts."""
        sim, engine, patroller, monitor = make_world()
        seen = []
        patroller.set_release_handler(seen.append)
        query = make_query()
        patroller.submit(query)
        sim.run()
        assert seen == [query]
        assert monitor.open_queries == 1
        assert monitor.open_snapshot() == [query]

    def test_on_intercepted_without_forward_raises(self):
        # With no release handler an intercepted statement has nowhere to
        # go: the patroller raises rather than hold it forever.
        sim, engine, patroller, monitor = make_world()
        patroller.set_release_handler(None)
        patroller.submit(make_query())
        with pytest.raises(PatrollerError):
            sim.run()

    def test_unknown_class_rejected(self):
        sim, engine, patroller, monitor = make_world()
        with pytest.raises(SchedulingError):
            monitor.measure("ghost")

    def test_completion_clears_open_set(self):
        sim, engine, patroller, monitor = make_world()
        run_query_with_wait(sim, patroller, wait=1.0, demand=1.0)
        sim.run()
        assert monitor.open_queries == 0

    def test_measure_all_covers_measured_classes(self):
        sim, engine, patroller, monitor = make_world()
        run_query_with_wait(sim, patroller, wait=2.0, demand=2.0)
        sim.run()
        results = monitor.measure_all()
        assert "class1" in results
        assert "class3" not in results  # nothing measured for it yet


class TestCancellationPurge:
    """Regression: cancelled queries must leave the open rows even when
    velocity is never measured (e.g. an OLTP-only deployment)."""

    def test_on_cancelled_purges_open_query(self):
        sim, engine, patroller, monitor = make_world()
        query = make_query()
        patroller.submit(query)
        sim.run()
        assert monitor.open_queries == 1
        assert patroller.cancel(query)
        assert monitor.open_queries == 0

    def test_open_set_stays_bounded_without_velocity_measurement(self):
        """Feed many queries and cancel them all, never calling measure():
        the open rows must not grow in a deployment with no OLAP class."""
        from repro.core.service_class import (
            ResponseTimeGoal,
            ServiceClass,
        )

        sim = Simulator()
        config = default_config()
        engine = DatabaseEngine(sim, config, RandomStreams(12))
        patroller = QueryPatroller(sim, engine)
        patroller.enable_for_class("class3")
        patroller.set_release_handler(patroller.cancel)
        oltp_only = [
            ServiceClass("class3", "oltp", ResponseTimeGoal(0.25), 3)
        ]
        monitor = Monitor(sim, engine, patroller.tables, oltp_only, config.monitor)
        for _ in range(100):
            patroller.submit(make_query(class_name="class3", kind="oltp"))
        sim.run()
        assert patroller.tables.counts_by_status() == {"cancelled": 100}
        assert monitor.open_queries == 0

    def test_on_cancelled_unknown_query_is_noop(self):
        sim, engine, patroller, monitor = make_world()
        assert not patroller.cancel(make_query())  # never intercepted
        assert monitor.open_queries == 0
