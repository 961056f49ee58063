"""Tests for query objects, phases and timing metrics."""

import math

import pytest

from repro.dbms.query import CPU, IO, Query, QueryState, make_phases
from repro.errors import SimulationError


def make_query(phases=None, **kwargs):
    if phases is None:
        phases = ((CPU, 1.0), (IO, 2.0))
    defaults = dict(
        query_id=1,
        class_name="class1",
        client_id="c0",
        template="q1",
        kind="olap",
        phases=phases,
        true_cost=100.0,
        estimated_cost=110.0,
    )
    defaults.update(kwargs)
    return Query(**defaults)


class TestMakePhases:
    def test_single_round(self):
        phases = make_phases(1.0, 2.0, rounds=1)
        assert phases == ((CPU, 1.0), (IO, 2.0))

    def test_multiple_rounds_alternate_and_conserve_demand(self):
        phases = make_phases(4.0, 8.0, rounds=4)
        assert len(phases) == 8
        assert [kind for kind, _ in phases] == [CPU, IO] * 4
        assert sum(demand for kind, demand in phases if kind == CPU) == pytest.approx(4.0)
        assert sum(demand for kind, demand in phases if kind == IO) == pytest.approx(8.0)

    def test_zero_cpu_omits_cpu_phases(self):
        phases = make_phases(0.0, 6.0, rounds=3)
        assert all(kind == IO for kind, _ in phases)
        assert len(phases) == 3

    def test_zero_both_yields_single_empty_phase(self):
        phases = make_phases(0.0, 0.0, rounds=2)
        assert len(phases) == 1
        assert phases == ((CPU, 0.0),)

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            make_phases(1.0, 1.0, rounds=0)
        with pytest.raises(SimulationError):
            make_phases(-1.0, 1.0, rounds=1)

    @pytest.mark.parametrize(
        "cpu, io",
        [
            (math.nan, 1.0),  # used to return only the IO phase
            (math.nan, math.nan),  # used to return one zero-demand phase
            (1.0, math.nan),
            (math.inf, 1.0),
            (1.0, math.inf),
            (1.0, -math.inf),
        ],
    )
    def test_non_finite_demands_are_refused(self, cpu, io):
        with pytest.raises(SimulationError, match="finite"):
            make_phases(cpu, io, rounds=2)

    def test_phases_are_plain_pairs_every_reader_unpacks(self):
        from repro.config import PatrollerConfig, default_config
        from repro.dbms.engine import DatabaseEngine
        from repro.patroller.patroller import QueryPatroller
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams
        from repro.workloads.spec import QueryFactory
        from repro.workloads.trace import TraceRecorder, TraceReplayer

        phases = make_phases(1.5, 2.5, rounds=2)
        assert phases == ((CPU, 0.75), (IO, 1.25)) * 2
        assert all(type(phase) is tuple and len(phase) == 2 for phase in phases)
        query = make_query(phases=phases)
        assert (query.cpu_demand, query.io_demand) == (1.5, 2.5)

        # Recorded on submit, re-split on replay, with QP's overhead phase
        # prepended to the intercepted original.
        sim = Simulator()
        config = default_config(patroller=PatrollerConfig(
            interception_latency=0.0, release_latency=0.0, overhead_cpu_demand=0.25))
        engine = DatabaseEngine(sim, config, RandomStreams(3))
        patroller = QueryPatroller(sim, engine, config.patroller)
        patroller.enable_for_class("class1")
        patroller.set_release_handler(patroller.release)
        recorder = TraceRecorder(sim, patroller)
        patroller.submit(query)
        sim.run()
        assert query.phases == ((CPU, 0.25),) + phases
        assert type(query.phases[0]) is tuple
        (entry,) = recorder.trace.entries
        assert (entry.cpu_demand, entry.io_demand, entry.rounds) == (1.5, 2.5, 2)
        replay = Simulator()
        replay_engine = DatabaseEngine(replay, config, RandomStreams(3))
        replay_patroller = QueryPatroller(replay, replay_engine, config.patroller)
        replayed = []
        replay_patroller.subscribe("submitted", replayed.append)
        factory = QueryFactory(replay_engine.estimator, RandomStreams(3))
        TraceReplayer(replay, replay_patroller, factory, recorder.trace).start()
        replay.run()
        assert [q.phases for q in replayed] == [phases]

    def test_total_demand_is_the_left_fold(self):
        # The same total on every interpreter: builtin sum, compensated on
        # Python >= 3.12, gives 0.1 there and 0.09999999999999999 before.
        query = make_query(phases=make_phases(0.1, 0.0, rounds=6))
        assert query.cpu_demand == 0.09999999999999999
        assert query.io_demand == 0.0


class TestQueryLifecycle:
    def test_initial_state(self):
        query = make_query()
        assert query.state == QueryState.CREATED
        assert query.phases_remaining == 2

    def test_demand_decomposition(self):
        query = make_query()
        assert query.cpu_demand == pytest.approx(1.0)
        assert query.io_demand == pytest.approx(2.0)

    def test_empty_phases_rejected(self):
        with pytest.raises(SimulationError):
            make_query(phases=())


class TestQueryMetrics:
    def _completed_query(self, submit=0.0, release=10.0, finish=30.0):
        query = make_query()
        query.submit_time = submit
        query.release_time = release
        query.finish_time = finish
        return query

    def test_response_time(self):
        assert self._completed_query().response_time == pytest.approx(30.0)

    def test_execution_time_measured_from_release(self):
        assert self._completed_query().execution_time == pytest.approx(20.0)

    def test_velocity_definition(self):
        # Section 3.1: velocity = execution / response.
        query = self._completed_query(submit=0.0, release=10.0, finish=30.0)
        assert query.velocity == pytest.approx(20.0 / 30.0)

    def test_velocity_is_one_without_hold_time(self):
        query = self._completed_query(submit=5.0, release=5.0, finish=25.0)
        assert query.velocity == pytest.approx(1.0)

    def test_velocity_capped_at_one(self):
        # Degenerate rounding can make execution "exceed" response.
        query = self._completed_query(submit=10.0, release=9.0, finish=30.0)
        assert query.velocity == 1.0

    def test_wait_time(self):
        query = self._completed_query()
        assert query.wait_time == pytest.approx(10.0)

    def test_bypassed_query_uses_submit_as_release(self):
        query = make_query()
        query.submit_time = 2.0
        query.release_time = None
        query.finish_time = 7.0
        assert query.execution_time == pytest.approx(5.0)
        assert query.velocity == 1.0

    def test_metrics_before_completion_raise(self):
        query = make_query()
        query.submit_time = 0.0
        with pytest.raises(SimulationError):
            _ = query.response_time
        with pytest.raises(SimulationError):
            _ = query.execution_time
