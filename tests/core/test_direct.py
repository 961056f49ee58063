"""Tests for direct in-engine control (the future-work extension)."""

import pytest

from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.core.direct import DirectScheduler, DispatcherGate
from repro.core.dispatcher import Dispatcher
from repro.core.monitor import MAX_MEASUREMENT_AGE, VELOCITY_WINDOW
from repro.core.plan import SchedulingPlan
from repro.core.service_class import (
    ResponseTimeGoal,
    ServiceClass,
    VelocityGoal,
    paper_classes,
)
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, Query
from repro.errors import SchedulingError
from repro.patroller.patroller import QueryPatroller
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_engine():
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(41))
    return sim, engine, QueryPatroller(sim, engine)


_qid = [20000]


def make_query(class_name="class1", cost=1_000.0, demand=2.0, kind="olap"):
    _qid[0] += 1
    query = Query(
        query_id=_qid[0],
        class_name=class_name,
        client_id="c{}".format(_qid[0]),
        template="t",
        kind=kind,
        phases=((CPU, demand),),
        true_cost=cost,
        estimated_cost=cost,
    )
    query.submit_time = 0.0
    return query


def make_gate(limits=None):
    sim, engine, patroller = make_engine()
    plan = SchedulingPlan(
        limits or {"class1": 2_000.0, "class2": 2_000.0, "class3": 2_000.0},
        30_000.0,
    )
    classes = list(paper_classes())
    gate = Dispatcher(
        classes,
        plan,
        release=engine.admit_released,
        clock=sim,
        gated=[c.name for c in classes],
    )
    patroller.subscribe("completed", gate.on_completion)
    engine.set_admission_gate(DispatcherGate(gate, sim))
    return sim, engine, gate


class TestEngineGate:
    """The in-engine gate: a dispatcher gating every class, behind the
    engine's admission hook (``make_gate`` returns the dispatcher)."""

    def test_admits_within_limit(self):
        sim, engine, gate = make_gate()
        engine.execute(make_query(cost=1_500.0))
        sim.run_until(0.1)
        assert engine.executing_queries == 1
        assert gate.class_accounting("class1").in_flight_cost == pytest.approx(1_500.0)

    def test_queues_past_limit_and_drains_on_completion(self):
        sim, engine, gate = make_gate()
        for _ in range(3):
            engine.execute(make_query(cost=1_500.0, demand=1.0))
        sim.run_until(0.1)
        assert engine.executing_queries == 1
        assert gate.class_accounting("class1").queue_length == 2
        sim.run_until(10.0)
        assert gate.class_accounting("class1").released == 3
        assert gate.class_accounting("class1").queue_length == 0

    def test_gates_oltp_too(self):
        """The whole point of in-engine control: OLTP is controllable."""
        sim, engine, gate = make_gate(
            {"class1": 2_000.0, "class2": 2_000.0, "class3": 50.0}
        )
        for _ in range(4):
            engine.execute(make_query(class_name="class3", cost=40.0,
                                      demand=0.02, kind="oltp"))
        sim.run_until(0.001)
        assert engine.executing_queries == 1
        assert gate.class_accounting("class3").queue_length == 3

    def test_gating_adds_no_overhead(self):
        """Admitted statements run at bare speed: zero added latency."""
        sim, engine, gate = make_gate()
        query = make_query(cost=100.0, demand=1.0)
        engine.execute(query)
        sim.run_until(5.0)
        assert query.finish_time == pytest.approx(1.0)
        assert query.velocity == pytest.approx(1.0)

    def test_held_statement_velocity_reflects_gate_wait(self):
        sim, engine, gate = make_gate()
        blocker = make_query(cost=2_000.0, demand=1.0)
        held = make_query(cost=2_000.0, demand=1.0)
        engine.execute(blocker)
        engine.execute(held)
        sim.run_until(5.0)
        # held waited ~1s (blocker's runtime) then ran ~1s.
        assert held.velocity == pytest.approx(0.5, abs=0.1)

    def test_unmanaged_class_passes_through(self):
        sim, engine, gate = make_gate()
        stray = make_query(class_name="ghost", cost=1e9)
        engine.execute(stray)
        sim.run_until(0.1)
        assert engine.executing_queries == 1

    def test_starvation_guard(self):
        sim, engine, gate = make_gate()
        monster = make_query(cost=1e6, demand=0.5)
        engine.execute(monster)
        sim.run_until(0.1)
        assert engine.executing_queries == 1  # alone, despite the limit

    def test_install_plan_drains_queues(self):
        sim, engine, gate = make_gate()
        for _ in range(3):
            engine.execute(make_query(cost=1_500.0, demand=10.0))
        sim.run_until(0.1)
        assert gate.class_accounting("class1").queue_length == 2
        admitted = gate.install_plan(
            SchedulingPlan({"class1": 10_000.0, "class2": 1_000.0, "class3": 1_000.0},
                           30_000.0)
        )
        assert admitted == 2
        assert engine.executing_queries == 3

    def test_arrival_does_not_overtake_its_class_queue(self):
        """A costly head must not starve behind cheap arrivals that fit."""
        sim, engine, gate = make_gate()
        engine.execute(make_query(cost=400.0, demand=1.0))
        head = make_query(cost=1_800.0, demand=1.0)
        engine.execute(head)  # 400 + 1800 > 2000: queued
        late = make_query(cost=400.0, demand=1.0)
        engine.execute(late)  # would fit, but the head is older
        assert gate.class_accounting("class1").queue_length == 2
        sim.run_until(10.0)
        assert head.start_time is not None and late.start_time is not None
        assert head.start_time <= late.start_time

    def test_unknown_plan_class_rejected(self):
        sim, engine, gate = make_gate()
        with pytest.raises(SchedulingError):
            gate.install_plan(SchedulingPlan({"ghost": 1.0}, 30_000.0))


class TestDirectScheduler:
    def _scheduler(self):
        sim, engine, patroller = make_engine()
        config = default_config(
            planner=PlannerConfig(control_interval=10.0),
            monitor=MonitorConfig(snapshot_interval=5.0),
            scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2),
        )
        scheduler = DirectScheduler(sim, engine, patroller, list(paper_classes()), config)
        return sim, engine, scheduler

    def test_start_runs_intervals(self):
        sim, engine, scheduler = self._scheduler()
        scheduler.start()
        sim.run_until(35.0)
        assert scheduler.planner.intervals_run == 3
        assert len(scheduler.telemetry) == 3

    def test_double_start_rejected(self):
        sim, engine, scheduler = self._scheduler()
        scheduler.start()
        with pytest.raises(SchedulingError):
            scheduler.start()

    def test_measurement_from_completions(self):
        sim, engine, scheduler = self._scheduler()
        query = make_query(class_name="class3", cost=40.0, demand=0.2, kind="oltp")
        engine.execute(query)
        sim.run_until(1.0)
        measured = scheduler.measurement.measure_all()
        assert set(measured) == {"class3"}  # class1 and class2 saw nothing
        assert measured["class3"].metric == "response_time"
        assert measured["class3"].value == pytest.approx(0.2, abs=0.02)
        assert measured["class3"].measured_at == 1.0

    def test_idle_class_measurement_expires(self):
        """The last value stands in for an idle class only while it is
        younger than ``MAX_MEASUREMENT_AGE``."""
        sim, engine, scheduler = self._scheduler()
        engine.execute(make_query(class_name="class3", cost=40.0, demand=0.2,
                                  kind="oltp"))
        sim.run_until(1.0)
        fresh = scheduler.measurement.measure_all()["class3"]
        # Past the sample window but inside the age: the retained value.
        sim.run_until(1.0 + VELOCITY_WINDOW + 1.0)
        assert scheduler.measurement.measure_all() == {"class3": fresh}
        sim.run_until(1.0 + MAX_MEASUREMENT_AGE + 1.0)
        assert scheduler.measurement.measure_all() == {}

    def test_replan_moves_limits_toward_violator(self):
        sim, engine, scheduler = self._scheduler()
        # A slow OLTP completion signals a violated goal.
        slow = make_query(class_name="class3", cost=40.0, demand=1.0, kind="oltp")
        engine.execute(slow)
        sim.run_until(2.0)
        before = scheduler.plan.limit("class3")
        scheduler.planner.run_interval()
        assert scheduler.plan.limit("class3") > before

    def test_two_oltp_classes_accepted(self):
        """What indirect control cannot do: tell two OLTP classes apart."""
        sim, engine, patroller = make_engine()
        classes = [
            ServiceClass("reports", "olap", VelocityGoal(0.5), importance=2),
            ServiceClass("payments", "oltp", ResponseTimeGoal(0.2), importance=3),
            ServiceClass("batch", "oltp", ResponseTimeGoal(3.0), importance=1),
        ]
        scheduler = DirectScheduler(sim, engine, patroller, classes, default_config())
        assert set(scheduler.planner.run_interval().plan) == {
            "reports", "payments", "batch"
        }

    def test_requires_classes(self):
        sim, engine, patroller = make_engine()
        with pytest.raises(SchedulingError):
            DirectScheduler(sim, engine, patroller, [], default_config())

    def test_describe(self):
        sim, engine, scheduler = self._scheduler()
        assert "in-engine" in scheduler.describe()


class TestDirectRun:
    """A ``direct`` run is observed like a Query Scheduler run."""

    def _result(self):
        from repro.experiments.runner import ExperimentSpec, run_spec

        config = default_config(
            planner=PlannerConfig(control_interval=10.0),
            monitor=MonitorConfig(snapshot_interval=5.0),
            scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=2),
        )
        return run_spec(
            ExperimentSpec(controller="direct", config=config, invariants="strict")
        )

    def test_one_telemetry_record_per_interval(self):
        result = self._result()
        store = result.extras["telemetry"]
        assert [r.interval_index for r in store] == [0, 1, 2, 3]
        assert [r.time for r in store] == [10.0, 20.0, 30.0, 40.0]
        for record in store:
            for name, accounting in record.dispatcher.items():
                assert accounting.released_total == (
                    accounting.completed_total
                    + accounting.cancelled_total
                    + accounting.in_flight_count
                ), name
        # The OLTP class is gated too: its statements are on the books.
        assert store.records[-1].dispatcher["class3"].released_total > 0

    def test_harness_registers_the_dispatcher_invariants(self):
        result = self._result()
        harness = result.extras["validation"]
        names = {invariant.name for invariant in harness.registry}
        assert {"dispatcher_in_flight_consistent", "class_conservation",
                "dispatcher_engine_agreement"} <= names
        assert harness.checks_run == len(result.extras["telemetry"])
        assert harness.violations == []
