"""Tests for workload trace recording and replay."""

import pytest

from repro.config import default_config
from repro.dbms.engine import DatabaseEngine
from repro.dbms.query import CPU, IO, Query, make_phases
from repro.errors import SimulationError, WorkloadError
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.client import ClosedLoopClient
from repro.workloads.spec import QueryFactory, QueryTemplate, WorkloadMix
from repro.workloads.trace import (
    TraceEntry,
    TraceRecorder,
    TraceReplayer,
    WorkloadTrace,
)
from tests.conftest import patroller_with


def make_world(seed=71):
    sim = Simulator()
    config = default_config()
    engine = DatabaseEngine(sim, config, RandomStreams(seed))
    patroller = patroller_with(sim, engine)
    factory = QueryFactory(engine.estimator, RandomStreams(seed))
    mix = WorkloadMix(
        "m",
        [QueryTemplate("fast", "oltp", cpu_demand=0.05, io_demand=0.05,
                       variability=0.3)],
    )
    return sim, engine, patroller, factory, mix


class TestWorkloadTrace:
    def _entry(self, time=1.0):
        return TraceEntry(
            time=time, class_name="c", client_id="cl", template="t", kind="oltp",
            cpu_demand=0.1, io_demand=0.1, rounds=1, parallelism=1,
        )

    def test_append_ordered(self):
        trace = WorkloadTrace()
        trace.append(self._entry(1.0))
        trace.append(self._entry(2.0))
        assert len(trace) == 2
        assert trace.duration == 2.0

    def test_out_of_order_rejected(self):
        trace = WorkloadTrace()
        trace.append(self._entry(5.0))
        with pytest.raises(WorkloadError):
            trace.append(self._entry(4.0))

    def test_json_roundtrip(self):
        trace = WorkloadTrace([self._entry(1.0), self._entry(3.0)])
        restored = WorkloadTrace.from_json(trace.to_json())
        assert restored.entries == trace.entries

    def test_file_roundtrip(self, tmp_path):
        trace = WorkloadTrace([self._entry(1.0)])
        path = str(tmp_path / "trace.json")
        trace.save(path)
        assert WorkloadTrace.load(path).entries == trace.entries

    def test_classes(self):
        trace = WorkloadTrace()
        trace.append(self._entry(1.0))
        trace.append(self._entry(2.0)._replace(class_name="other"))
        assert trace.classes() == ["c", "other"]


class TestRecorder:
    def test_records_closed_loop_submissions(self):
        sim, engine, patroller, factory, mix = make_world()
        recorder = TraceRecorder(sim, patroller)
        client = ClosedLoopClient(patroller, factory, mix, "class3", "c0")
        client.activate()
        sim.run_until(2.0)
        assert len(recorder.trace) == client.queries_submitted
        first = recorder.trace.entries[0]
        assert first.class_name == "class3"
        assert first.template == "fast"
        assert first.cpu_demand > 0


class TestReplayer:
    def test_replay_reproduces_arrival_times_and_demands(self):
        # Record a run...
        sim, engine, patroller, factory, mix = make_world(seed=71)
        recorder = TraceRecorder(sim, patroller)
        client = ClosedLoopClient(patroller, factory, mix, "class3", "c0")
        client.activate()
        sim.run_until(3.0)
        trace = recorder.trace
        original = len(trace)
        assert original > 5

        # ...and replay it against a fresh system with a different seed.
        sim2, engine2, patroller2, factory2, _ = make_world(seed=999)
        recorder2 = TraceRecorder(sim2, patroller2)
        replayer = TraceReplayer(sim2, patroller2, factory2, trace)
        replayer.start()
        sim2.run_until(3.0)
        assert replayer.replayed == original
        times_a = [e.time for e in trace.entries]
        times_b = [e.time for e in recorder2.trace.entries]
        assert times_b == pytest.approx(times_a)
        demands_a = [e.cpu_demand for e in trace.entries]
        demands_b = [e.cpu_demand for e in recorder2.trace.entries]
        assert demands_b == pytest.approx(demands_a)

    @pytest.mark.parametrize(
        "cpu, io, rounds, expected",
        [
            # No CPU demand: the rounds are the IO phases.
            (0.0, 6.0, 3, ((IO, 2.0),) * 3),
            (1.5, 3.0, 3, ((CPU, 0.5), (IO, 1.0)) * 3),
        ],
    )
    def test_replay_keeps_the_recorded_phase_structure(self, cpu, io, rounds, expected):
        sim, _, patroller, _, _ = make_world()
        recorder = TraceRecorder(sim, patroller)
        phases = make_phases(cpu, io, rounds)
        assert phases == expected
        patroller.submit(Query(
            query_id=1, class_name="class1", client_id="c0", template="q1",
            kind="olap", phases=phases, true_cost=100.0, estimated_cost=100.0,
        ))
        sim.run()
        assert [e.rounds for e in recorder.trace.entries] == [rounds]

        sim2, _, patroller2, factory2, _ = make_world()
        replayed = []
        patroller2.subscribe("submitted", replayed.append)
        TraceReplayer(sim2, patroller2, factory2, recorder.trace).start()
        sim2.run()
        assert [q.phases for q in replayed] == [expected]

    def test_time_scale_stretches_replay(self):
        trace = WorkloadTrace([
            TraceEntry(1.0, "class3", "c", "t", "oltp", 0.01, 0.01, 1, 1),
            TraceEntry(2.0, "class3", "c", "t", "oltp", 0.01, 0.01, 1, 1),
        ])
        sim, engine, patroller, factory, _ = make_world()
        replayer = TraceReplayer(sim, patroller, factory, trace, time_scale=2.0)
        replayer.start()
        sim.run_until(3.0)
        assert replayer.replayed == 1  # only the t=2.0 arrival fired
        sim.run_until(4.0)
        assert replayer.replayed == 2

    def test_a_nan_demand_in_a_trace_is_refused_at_replay(self):
        # JSON accepts NaN; replaying it used to drop the statement's CPU
        # phase (or, with both demands NaN, complete it at once).
        trace = WorkloadTrace.from_json(
            '[{"time": 1.0, "class_name": "class3", "client_id": "c", '
            '"template": "t", "kind": "oltp", "cpu_demand": NaN, '
            '"io_demand": 0.01, "rounds": 1, "parallelism": 1}]'
        )
        sim, engine, patroller, factory, _ = make_world()
        TraceReplayer(sim, patroller, factory, trace).start()
        with pytest.raises(SimulationError, match="finite"):
            sim.run_until(2.0)
        assert engine.completed_queries == 0

    def test_invalid_time_scale(self):
        sim, engine, patroller, factory, _ = make_world()
        with pytest.raises(WorkloadError):
            TraceReplayer(sim, patroller, factory, WorkloadTrace(), time_scale=0.0)

    def test_double_start_rejected(self):
        sim, engine, patroller, factory, _ = make_world()
        replayer = TraceReplayer(sim, patroller, factory, WorkloadTrace())
        replayer.start()
        with pytest.raises(WorkloadError):
            replayer.start()
