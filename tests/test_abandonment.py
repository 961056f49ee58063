"""Tests for query cancellation (QP cancel command) and client abandonment."""

import pytest

from repro.config import PatrollerConfig, default_config
from repro.core.plan import SchedulingPlan
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Query, QueryState
from repro.errors import PatrollerError
from repro.patroller.patroller import QueryPatroller
from repro.patroller.policy import QPStaticPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.client import ClosedLoopClient
from repro.workloads.spec import QueryFactory, QueryTemplate, WorkloadMix
from tests.conftest import patroller_dispatcher


def make_stack():
    sim = Simulator()
    config = default_config(
        patroller=PatrollerConfig(interception_latency=0.0, release_latency=0.0,
                                  overhead_cpu_demand=0.0)
    )
    engine = DatabaseEngine(sim, config, RandomStreams(51))
    patroller = QueryPatroller(sim, engine, config.patroller)
    patroller.enable_for_class("class1")
    return sim, engine, patroller


_qid = [30000]


def make_query(cost=1_000.0, demand=5.0, class_name="class1"):
    _qid[0] += 1
    return Query(
        query_id=_qid[0],
        class_name=class_name,
        client_id="c",
        template="t",
        kind="olap",
        phases=((CPU, demand),),
        true_cost=cost,
        estimated_cost=cost,
    )


class TestPatrollerCancel:
    def test_cancel_held_query(self):
        sim, engine, patroller = make_stack()
        patroller.set_release_handler(lambda q: None)
        query = make_query()
        patroller.submit(query)
        sim.run_until(0.1)
        assert patroller.cancel(query)
        assert query.state == QueryState.CANCELLED
        assert patroller.held_queries == 0
        assert patroller.tables.find(query.query_id) is None
        assert patroller.tables.counts_by_status() == {"cancelled": 1}

    def test_cancel_released_query_refused(self):
        sim, engine, patroller = make_stack()
        patroller.set_release_handler(patroller.release)
        query = make_query()
        patroller.submit(query)
        sim.run_until(0.1)
        assert not patroller.cancel(query)

    def test_cancelled_query_cannot_be_released(self):
        sim, engine, patroller = make_stack()
        patroller.set_release_handler(lambda q: None)
        query = make_query()
        patroller.submit(query)
        sim.run_until(0.1)
        patroller.cancel(query)
        with pytest.raises(PatrollerError):
            patroller.release(query)

    def test_cancelled_query_never_executes(self):
        sim, engine, patroller = make_stack()
        patroller.set_release_handler(lambda q: None)
        query = make_query()
        patroller.submit(query)
        sim.run_until(0.1)
        patroller.cancel(query)
        sim.run_until(60.0)
        assert engine.completed_queries == 0


class TestCancelDuringReleaseWindow:
    """Regression: a query cancelled after release but before its unblock
    event fires must free its dispatcher slot, or the class limit shrinks
    permanently (in_flight_cost/in_flight_count leak)."""

    def make_windowed_stack(self, release_latency=1.0):
        sim = Simulator()
        config = default_config(
            patroller=PatrollerConfig(
                interception_latency=0.0,
                release_latency=release_latency,
                overhead_cpu_demand=0.0,
            )
        )
        engine = DatabaseEngine(sim, config, RandomStreams(55))
        patroller = QueryPatroller(sim, engine, config.patroller)
        patroller.enable_for_class("class1")
        classes = list(paper_classes())
        plan = SchedulingPlan(
            {"class1": 1_000.0, "class2": 1_000.0, "class3": 1_000.0}, 30_000.0
        )
        dispatcher = patroller_dispatcher(patroller, classes, plan)
        patroller.set_release_handler(dispatcher.enqueue)
        return sim, engine, patroller, dispatcher

    def test_cancel_in_window_frees_dispatcher_slot(self):
        sim, engine, patroller, dispatcher = self.make_windowed_stack()
        doomed = make_query(cost=900.0, demand=1.0)
        patroller.submit(doomed)
        sim.run_until(0.1)
        # Released (slot charged) but the unblock event fires at t=1.0.
        assert doomed.state == QueryState.RELEASED
        assert dispatcher.class_accounting("class1").in_flight_count == 1
        assert dispatcher.class_accounting("class1").in_flight_cost == pytest.approx(900.0)
        assert patroller.cancel(doomed)
        assert doomed.state == QueryState.CANCELLED
        assert dispatcher.class_accounting("class1").in_flight_count == 0
        assert dispatcher.class_accounting("class1").in_flight_cost == 0.0
        assert dispatcher.class_accounting("class1").cancelled == 1
        sim.run_until(10.0)
        assert engine.completed_queries == 0  # never reached the engine

    def test_cancel_in_window_unblocks_successor(self):
        """Without the slot release the class would be wedged: the next
        query's cost no longer fits under the limit."""
        sim, engine, patroller, dispatcher = self.make_windowed_stack()
        doomed = make_query(cost=900.0, demand=1.0)
        successor = make_query(cost=900.0, demand=1.0)
        patroller.submit(doomed)
        sim.run_until(0.1)
        patroller.submit(successor)
        sim.run_until(0.3)
        assert dispatcher.class_accounting("class1").queue_length == 1  # successor waits
        patroller.cancel(doomed)
        sim.run_until(30.0)
        assert successor.state == QueryState.COMPLETED
        assert engine.completed_queries == 1
        assert dispatcher.class_accounting("class1").released == 2
        assert dispatcher.class_accounting("class1").completed == 1
        assert dispatcher.class_accounting("class1").cancelled == 1
        assert dispatcher.class_accounting("class1").in_flight_count == 0
        assert dispatcher.class_accounting("class1").in_flight_cost == 0.0

    def test_cancel_after_execution_starts_refused(self):
        sim, engine, patroller, dispatcher = self.make_windowed_stack()
        query = make_query(cost=900.0, demand=5.0)
        patroller.submit(query)
        sim.run_until(2.0)  # unblock event fired; query is executing
        assert query.state == QueryState.EXECUTING
        assert not patroller.cancel(query)
        assert dispatcher.class_accounting("class1").in_flight_count == 1

    def test_cancelled_in_window_query_purged_from_monitor(self):
        """The open control-table rows the monitor reads must not retain
        cancelled queries (regression: unbounded growth with no OLAP class)."""
        from repro.config import MonitorConfig
        from repro.core.monitor import Monitor

        sim, engine, patroller, dispatcher = self.make_windowed_stack()
        monitor = Monitor(
            sim, engine, patroller.tables, list(paper_classes()), MonitorConfig()
        )
        doomed = make_query(cost=900.0, demand=1.0)
        patroller.submit(doomed)
        sim.run_until(0.1)
        assert doomed.state == QueryState.RELEASED  # inside the window
        assert monitor.open_queries == 1
        patroller.cancel(doomed)
        assert monitor.open_queries == 0


class TestQueueSkipping:
    def test_dispatcher_skips_cancelled_head(self):
        sim, engine, patroller = make_stack()
        classes = list(paper_classes())
        plan = SchedulingPlan(
            {"class1": 1_000.0, "class2": 1_000.0, "class3": 1_000.0}, 30_000.0
        )
        dispatcher = patroller_dispatcher(patroller, classes, plan)
        patroller.set_release_handler(dispatcher.enqueue)
        blocker = make_query(cost=900.0, demand=1.0)
        doomed = make_query(cost=900.0, demand=1.0)
        survivor = make_query(cost=900.0, demand=1.0)
        for q in (blocker, doomed, survivor):
            patroller.submit(q)
        sim.run_until(0.1)
        assert dispatcher.class_accounting("class1").queue_length == 2
        patroller.cancel(doomed)
        sim.run_until(30.0)
        # blocker and survivor ran; doomed never did.
        assert engine.completed_queries == 2
        assert survivor.state == QueryState.COMPLETED
        assert doomed.state == QueryState.CANCELLED

    def test_qp_policy_skips_cancelled(self):
        sim, engine, patroller = make_stack()
        policy = QPStaticPolicy(patroller, global_cost_limit=1_000.0)
        policy.start()
        blocker = make_query(cost=900.0, demand=1.0)
        doomed = make_query(cost=900.0, demand=1.0)
        patroller.submit(blocker)
        patroller.submit(doomed)
        sim.run_until(0.1)
        patroller.cancel(doomed)
        sim.run_until(30.0)
        assert engine.completed_queries == 1
        assert policy.queued == 0


class TestClientPatience:
    def _client(self, patience):
        sim, engine, patroller = make_stack()
        factory = QueryFactory(engine.estimator, RandomStreams(52))
        mix = WorkloadMix(
            "m", [QueryTemplate("t", "olap", cpu_demand=1.0, io_demand=0.5,
                                variability=0.0)]
        )
        client = ClosedLoopClient(
            sim, patroller, factory, mix, "class1", "c0",
            think_time=0.0, patience=patience,
        )
        return sim, engine, patroller, client

    def test_impatient_client_abandons_held_queries(self):
        sim, engine, patroller, client = self._client(patience=2.0)
        patroller.set_release_handler(lambda q: None)  # nothing ever releases
        client.activate()
        sim.run_until(10.0)
        assert client.queries_abandoned >= 4
        assert client.queries_completed == 0
        # The client keeps resubmitting after each abandonment.
        assert client.queries_submitted == client.queries_abandoned + 1

    def test_patient_enough_client_completes(self):
        sim, engine, patroller, client = self._client(patience=60.0)
        patroller.set_release_handler(patroller.release)
        client.activate()
        sim.run_until(10.0)
        assert client.queries_abandoned == 0
        assert client.queries_completed > 0

    def test_patience_ignores_released_queries(self):
        """A query that got released before the patience timer is left to
        finish normally."""
        sim, engine, patroller, client = self._client(patience=0.5)
        patroller.set_release_handler(patroller.release)  # instant release
        client.activate()
        sim.run_until(5.0)
        assert client.queries_abandoned == 0
        assert client.queries_completed >= 3

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            self._client(patience=0.0)


def test_abandonment_under_query_scheduler_end_to_end():
    """Full-stack: impatient clients + QS; the system keeps functioning and
    cancelled queries never corrupt the dispatcher accounting."""
    from repro.core.scheduler import QueryScheduler
    from repro.config import MonitorConfig, PlannerConfig

    sim = Simulator()
    config = default_config(
        planner=PlannerConfig(control_interval=10.0),
        monitor=MonitorConfig(snapshot_interval=5.0),
    )
    engine = DatabaseEngine(sim, config, RandomStreams(53))
    patroller = QueryPatroller(sim, engine, config.patroller)
    classes = list(paper_classes())
    scheduler = QueryScheduler(sim, engine, patroller, classes, config)
    factory = QueryFactory(engine.estimator, RandomStreams(54))
    from repro.workloads.tpch import tpch_mix

    clients = [
        ClosedLoopClient(sim, patroller, factory, tpch_mix(), "class1",
                         "c{}".format(i), patience=15.0)
        for i in range(6)
    ]
    scheduler.start()
    for client in clients:
        client.activate()
    sim.run_until(120.0)
    abandoned = sum(c.queries_abandoned for c in clients)
    completed = sum(c.queries_completed for c in clients)
    assert completed > 0
    # Accounting stayed consistent despite any abandonments.
    assert scheduler.dispatcher.class_accounting("class1").in_flight_count >= 0
    assert scheduler.dispatcher.class_accounting("class1").in_flight_cost >= 0.0
    assert engine.completed_queries == completed
    assert abandoned + completed <= sum(c.queries_submitted for c in clients)
