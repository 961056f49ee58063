"""Edge-case tests across module boundaries.

These cover the seams the per-module suites don't: interactions between
the overload model and admission layers, measurement behaviour at period
boundaries, plan churn, and patroller/table corner transitions.
"""

import pytest

from repro.config import (
    MonitorConfig,
    OverloadConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.plan import SchedulingPlan
from repro.core.service_class import paper_classes
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, IO, Query
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import patroller_dispatcher, patroller_with


def make_engine(**overrides):
    sim = Simulator()
    config = default_config(**overrides)
    engine = DatabaseEngine(sim, config, RandomStreams(101))
    return sim, config, engine


_qid = [50_000]


def make_query(cost=100.0, cpu=1.0, io=0.0, class_name="class1", kind="olap"):
    _qid[0] += 1
    phases = []
    if cpu > 0:
        phases.append((CPU, cpu))
    if io > 0:
        phases.append((IO, io))
    query = Query(
        query_id=_qid[0],
        class_name=class_name,
        client_id="c{}".format(_qid[0]),
        template="t",
        kind=kind,
        phases=tuple(phases),
        true_cost=cost,
        estimated_cost=cost,
    )
    query.submit_time = 0.0
    return query


class TestOverloadInteraction:
    def test_efficiency_recovers_after_retirement(self):
        sim, config, engine = make_engine(overload=OverloadConfig(knee_cost=100.0))
        heavy = make_query(cost=300.0, cpu=1.0)
        engine.execute(heavy)
        sim.run_until(0.1)
        degraded = engine.cpu.efficiency
        assert degraded < 1.0
        sim.run()
        assert engine.cpu.efficiency == 1.0
        # The job's wall time reflects the degradation it caused.
        expected = 0.1 + (1.0 - 0.1 * degraded) / degraded
        assert heavy.finish_time == pytest.approx(expected, rel=0.02)

    def test_two_queries_slow_each_other_through_the_knee(self):
        sim, config, engine = make_engine(overload=OverloadConfig(knee_cost=100.0))
        a = make_query(cost=80.0, cpu=1.0)
        b = make_query(cost=80.0, cpu=1.0)
        engine.execute(a)
        engine.execute(b)
        sim.run()
        # Total cost 160 -> efficiency 1/(1+1.5*0.6) = 1/1.9 while both
        # run; 2 CPUs so no PS sharing.  Both finish at 1.9.
        assert a.finish_time == pytest.approx(1.9, rel=0.01)
        assert b.finish_time == pytest.approx(1.9, rel=0.01)


class TestMixedPhaseExecution:
    def test_cpu_and_io_phases_use_different_pools(self):
        sim, config, engine = make_engine()
        query = make_query(cpu=1.0, io=2.0)
        engine.execute(query)
        sim.run()
        assert query.finish_time == pytest.approx(3.0)
        assert engine.cpu.completed_demand == pytest.approx(1.0)
        assert engine.disk.completed_demand == pytest.approx(2.0)

    def test_many_io_jobs_saturate_the_17_disks(self):
        sim, config, engine = make_engine()
        queries = [make_query(cpu=0.0, io=1.0) for _ in range(34)]
        for q in queries:
            engine.execute(q)
        sim.run()
        # 34 jobs on 17 disks: each runs at rate 1/2 -> 2 seconds.
        for q in queries:
            assert q.finish_time == pytest.approx(2.0)


class TestPatrollerEdges:
    def _patroller(self):
        sim, config, engine = make_engine()
        patroller = patroller_with(sim, engine, interception_latency=0.1)
        patroller.enable_for_class("class1")
        return sim, engine, patroller

    def test_cancel_between_submit_and_intercept_is_refused(self):
        """During the interception latency the query is not yet held."""
        sim, engine, patroller = self._patroller()
        patroller.set_release_handler(lambda q: None)
        query = make_query()
        patroller.submit(query)
        # Not yet intercepted (latency 0.1): not held, cancel refused.
        assert not patroller.cancel(query)
        sim.run_until(0.2)
        assert patroller.cancel(query)

    def test_submit_listener_sees_bypassed_and_intercepted(self):
        sim, engine, patroller = self._patroller()
        patroller.set_release_handler(patroller.release)
        seen = []
        patroller.subscribe("submitted", lambda q: seen.append(q.class_name))
        patroller.submit(make_query(class_name="class1"))
        patroller.submit(make_query(class_name="class3", kind="oltp"))
        sim.run_until(1.0)
        assert seen == ["class1", "class3"]

    def test_tables_survive_full_lifecycle_mix(self):
        sim, engine, patroller = self._patroller()
        held = []
        patroller.set_release_handler(held.append)
        finishes, cancels = make_query(cpu=0.1), make_query(cpu=0.1)
        patroller.submit(finishes)
        patroller.submit(cancels)
        sim.run_until(0.2)
        patroller.release(finishes)
        patroller.cancel(cancels)
        sim.run_until(5.0)
        counts = patroller.tables.counts_by_status()
        assert counts == {"completed": 1, "cancelled": 1}


class TestPlanChurn:
    def test_rapid_plan_swaps_keep_accounting_exact(self):
        sim, config, engine = make_engine()

        patroller = patroller_with(sim, engine)
        classes = list(paper_classes())
        for c in classes:
            if c.directly_controlled:
                patroller.enable_for_class(c.name)
        plan = SchedulingPlan.even_split([c.name for c in classes], 30_000.0)
        dispatcher = patroller_dispatcher(patroller, classes, plan)
        patroller.set_release_handler(dispatcher.enqueue)
        for _ in range(10):
            patroller.submit(make_query(cost=3_000.0, cpu=2.0))
        sim.run_until(0.1)
        # Thrash the plan every 0.5s between starving and generous.
        for step in range(10):
            limit = 1_000.0 if step % 2 == 0 else 25_000.0
            sim.schedule(
                0.5 * (step + 1),
                lambda lim=limit: dispatcher.install_plan(
                    SchedulingPlan(
                        {"class1": lim, "class2": 1_000.0, "class3": 1_000.0},
                        30_000.0,
                    )
                ),
            )
        sim.run_until(60.0)
        assert engine.completed_queries == 10
        assert dispatcher.class_accounting("class1").in_flight_count == 0
        assert dispatcher.class_accounting("class1").in_flight_cost == pytest.approx(0.0)
        assert dispatcher.class_accounting("class1").queue_length == 0


class TestMonitorBoundaries:
    def test_oltp_measurement_with_idle_then_busy_connections(self):
        from repro.core.monitor import Monitor
        from repro.patroller.tables import ControlTables

        sim, config, engine = make_engine(
            monitor=MonitorConfig(snapshot_interval=2.0,
                                  response_time_window=10.0)
        )
        classes = list(paper_classes())
        monitor = Monitor(sim, engine, ControlTables(), classes, config.monitor)
        monitor.start()
        # One early completion, then nothing: samples go stale and the
        # snapshot filter drops them, but measure() keeps the last value.
        early = make_query(cost=30.0, cpu=0.2, class_name="class3", kind="oltp")
        engine.execute(early)
        sim.run_until(4.0)
        first = monitor.measure("class3")
        assert first is not None
        sim.run_until(60.0)
        later = monitor.measure("class3")
        assert later is not None  # retained, not lost
        assert later.value == pytest.approx(first.value)
