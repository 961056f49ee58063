"""Tests for the database engine's execution semantics."""

import pytest

from repro.config import default_config
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, IO, Query, make_phases
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_engine(sim=None, **config_overrides):
    sim = sim or Simulator()
    config = default_config(**config_overrides)
    return sim, DatabaseEngine(sim, config, RandomStreams(seed=1))


def make_query(query_id, phases, cost=100.0, parallelism=1, kind="olap"):
    query = Query(
        query_id=query_id,
        class_name="class1",
        client_id="client-{}".format(query_id),
        template="t",
        kind=kind,
        phases=phases,
        true_cost=cost,
        estimated_cost=cost,
    )
    query.parallelism = parallelism
    return query


def test_single_query_executes_phases_sequentially():
    sim, engine = make_engine()
    query = make_query(1, ((CPU, 2.0), (IO, 3.0)))
    query.submit_time = 0.0
    engine.execute(query)
    # Phases are consumed in order: the CPU one is in service, IO is next.
    assert (engine.cpu.active_jobs, engine.disk.active_jobs) == (1, 0)
    assert query.phases_remaining == 1
    sim.run_until(2.5)
    assert (engine.cpu.active_jobs, engine.disk.active_jobs) == (0, 1)
    assert query.phases_remaining == 0
    sim.run()
    # 2 CPUs and 17 disks idle: phases at full speed, serial.
    assert query.finish_time == pytest.approx(5.0)
    assert query.execution_time == pytest.approx(5.0)
    assert engine.completed_queries == 1


def test_release_time_defaults_to_execute_instant():
    sim, engine = make_engine()
    query = make_query(1, ((CPU, 1.0),))
    query.submit_time = 0.0
    sim.schedule(4.0, lambda: engine.execute(query))
    sim.run()
    assert query.release_time == pytest.approx(4.0)
    assert query.execution_time == pytest.approx(1.0)
    assert query.response_time == pytest.approx(5.0)


def test_cpu_contention_stretches_execution():
    sim, engine = make_engine()
    # 4 CPU-only queries on 2 CPUs: each takes twice its demand.
    queries = [make_query(i, ((CPU, 2.0),)) for i in range(4)]
    for q in queries:
        q.submit_time = 0.0
        engine.execute(q)
    sim.run()
    for q in queries:
        assert q.finish_time == pytest.approx(4.0)


def test_parallel_phase_uses_multiple_servers():
    sim, engine = make_engine()
    query = make_query(1, ((CPU, 2.0),), parallelism=2)
    query.submit_time = 0.0
    engine.execute(query)
    sim.run()
    # 2 sub-jobs of demand 1.0 on 2 idle CPUs: wall clock halves.
    assert query.finish_time == pytest.approx(1.0)


def test_parallel_phase_barrier_before_next_phase():
    sim, engine = make_engine()
    query = make_query(1, ((CPU, 2.0), (IO, 1.0)), parallelism=2)
    query.submit_time = 0.0
    engine.execute(query)
    sim.run()
    # CPU fan-out finishes at 1.0; IO (2 sub-jobs of 0.5) adds 0.5.
    assert query.finish_time == pytest.approx(1.5)


def occupancy(sim, engine, query, times):
    """(cpu jobs, disk jobs, phases dispatched) sampled at each of ``times``."""
    seen = []
    for time in times:
        sim.schedule_at(
            time,
            lambda: seen.append(
                (engine.cpu.active_jobs, engine.disk.active_jobs, query.phase_index)
            ),
        )
    return seen


def test_multi_round_statement_consumes_its_phases_in_order():
    # Each finished phase comes back from its pool as the query itself
    # (the job's owner) and starts the next one: CPU 1 s, IO 2 s, thrice.
    sim, engine = make_engine()
    query = make_query(1, make_phases(3.0, 6.0, rounds=3))
    assert [kind for kind, _ in query.phases] == [CPU, IO] * 3
    query.submit_time = 0.0
    seen = occupancy(sim, engine, query, [0.5, 2.0, 3.5, 5.0, 6.5, 8.0])
    engine.execute(query)
    sim.run()
    assert seen == [(1, 0, 1), (0, 1, 2), (1, 0, 3), (0, 1, 4), (1, 0, 5), (0, 1, 6)]
    assert query.finish_time == pytest.approx(9.0)
    assert engine.cpu.completed_jobs == engine.disk.completed_jobs == 3


def test_parallel_statement_consumes_its_phases_in_order():
    # Three sub-jobs per phase hand back one shared barrier; the last one
    # in starts the next phase.  3 x 1 s on 2 CPUs takes 1.5 s, on disks 1 s.
    sim, engine = make_engine()
    query = make_query(1, make_phases(6.0, 6.0, rounds=2), parallelism=3)
    query.submit_time = 0.0
    seen = occupancy(sim, engine, query, [1.0, 2.0, 3.0, 4.5])
    engine.execute(query)
    sim.run()
    assert seen == [(3, 0, 1), (0, 3, 2), (3, 0, 3), (0, 3, 4)]
    assert query.finish_time == pytest.approx(5.0)
    assert engine.cpu.completed_jobs == engine.disk.completed_jobs == 6
    assert engine.completed_queries == 1 and engine.executing_queries == 0


def test_double_execute_rejected():
    sim, engine = make_engine()
    query = make_query(1, ((CPU, 1.0),))
    query.submit_time = 0.0
    engine.execute(query)
    sim.run()
    with pytest.raises(SimulationError):
        engine.execute(query)


def test_completion_listener_and_per_query_callback_order():
    sim, engine = make_engine()
    calls = []
    engine.set_completion_hook(lambda q: calls.append("hook"))
    query = make_query(1, ((CPU, 1.0),))
    query.submit_time = 0.0
    query.on_complete = lambda q: calls.append("query")
    engine.execute(query)
    sim.run()
    assert calls == ["query", "hook"]


def test_executing_cost_by_class():
    sim, engine = make_engine()
    q1 = make_query(1, ((CPU, 5.0),), cost=100.0)
    q2 = make_query(2, ((CPU, 5.0),), cost=50.0)
    q2.class_name = "other"
    for q in (q1, q2):
        q.submit_time = 0.0
        engine.execute(q)
    sim.run_until(1.0)
    assert engine.executing_queries == 2
    assert engine.executing_cost() == pytest.approx(150.0)
    assert engine.executing_cost("class1") == pytest.approx(100.0)
    sim.run()
    assert engine.executing_cost() == 0.0


def test_overload_admission_accounting():
    sim, engine = make_engine()
    query = make_query(1, ((CPU, 1.0),), cost=40000.0)
    query.submit_time = 0.0
    engine.execute(query)
    sim.run_until(0.5)
    assert engine.overload.total_cost == pytest.approx(40000.0)
    assert engine.cpu.efficiency < 1.0  # past the knee
    sim.run()
    assert engine.overload.total_cost == 0.0
    assert engine.cpu.efficiency == 1.0


def test_agent_pool_limits_concurrency():
    sim, engine = make_engine()
    engine.agents.max_agents = 1
    first = make_query(1, ((CPU, 2.0),))
    second = make_query(2, ((CPU, 2.0),))
    for q in (first, second):
        q.submit_time = 0.0
        engine.execute(q)
    sim.run()
    # Serialized by the single agent: 2s then 2s.
    assert first.finish_time == pytest.approx(2.0)
    assert second.finish_time == pytest.approx(4.0)


def test_snapshot_monitor_sees_completions():
    sim, engine = make_engine()
    query = make_query(1, ((CPU, 1.0),), kind="oltp")
    query.class_name = "class3"
    query.submit_time = 0.0
    engine.execute(query)
    sim.run()
    samples = engine.snapshot_monitor.snapshot(class_name="class3")
    assert len(samples) == 1
    assert samples[0].response_time == pytest.approx(1.0)
