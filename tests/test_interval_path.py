"""Pins on the cost of the per-interval control path and its observers.

One run for most of them: :func:`tests.conftest.dense_smoke_spec` (8
classes, 1 s interval, strict invariants, tracing) with a hub whose one
subscriber keeps every event, as the benchmark's ``control_dense`` workload
does.  The solver's pin adds :func:`tests.conftest.paper_smoke_spec` for its
exhaustive search, and the model-state pins run both specs and weigh one
trained learned model's state against its ``describe()`` dict.
"""

import cProfile
import gc
import pstats
import tracemalloc
from collections import Counter

import pytest

from repro.core.planner import SchedulingPlanner
from repro.core.service_class import ResponseTimeGoal, ServiceClass, VelocityGoal
from repro.core.solver import ClassStatus, PerformanceSolver
from repro.experiments.runner import assemble_run, finish_run, run_spec
from repro.metrics.telemetry import ControlIntervalRecord
from repro.obs.live import LiveEvent, TelemetryHub
from tests.conftest import dense_smoke_spec, paper_smoke_spec, trained_model

#: Ceiling on ``Dispatcher._state`` look-ups per control interval: 45 today
#: (8 by ``install_plan``, 16 by the planner's mix snapshot and telemetry,
#: 21 by the three dispatcher invariants over 7 gated classes); 187 when
#: every number was its own accessor call.
MAX_CLASS_STATE_LOOKUPS = 50

#: Ceiling on Python-level calls under ``run_interval``, listeners included:
#: 867 today (the per-interval rows are built with ``tuple.__new__``, but
#: ``pstats`` merges every ``NamedTuple`` constructor into one ``<string>:1``
#: entry, so that barely shows), 876 before the record sections and the
#: events' class progress were packed, 901 when every record built the
#: model's ``describe()`` dict, 1,316 when the publisher rendered the record
#: every interval.
MAX_CALLS_PER_INTERVAL = 1035

#: Ceiling on the bytes one control interval leaves behind in
#: ``planner.history`` and the hub's ``interval`` events (what dropping them
#: frees): 3,883 today on CPython 3.11; 7,070 when each record section and
#: each event's class progress held one object per class.
MAX_BYTES_PER_INTERVAL = 5000

#: Ceilings on Python-level calls under ``PerformanceSolver.solve``, per solve.
#: Three classes, exhaustive: 575 today, 5,472 when each of the 406
#: allocations cost a generator step, a tuple and three method calls.  Eight
#: classes, greedy: 278 today, 312 before the bound screen.
MAX_CALLS_PER_EXHAUSTIVE_SOLVE = 650
MAX_CALLS_PER_GREEDY_SOLVE = 312

#: Ceiling on what one learned-model ``state()`` retains, as a share of one
#: ``describe()`` dict, for 8 trained classes: 0.17 today (752 B against
#: 4,477 B on CPython 3.11); 1.0 when every record kept the dict.
MAX_STATE_SHARE_OF_DESCRIBE = 0.3


def run_with_hub():
    hub = TelemetryHub()
    subscription = hub.subscribe(max_queue=1 << 16)
    result = run_spec(dense_smoke_spec(), hub=hub)
    return result, hub, subscription.drain()


def test_a_record_is_rendered_once_and_only_at_export(monkeypatch, tmp_path):
    rendered = Counter()
    to_dict = ControlIntervalRecord.to_dict

    def counting(record):
        rendered[record.interval_index] += 1
        return to_dict(record)

    monkeypatch.setattr(ControlIntervalRecord, "to_dict", counting)
    result, _, events = run_with_hub()
    store = result.extras["telemetry"]
    assert len(store) == 40 == sum(e.type == "interval" for e in events)
    assert not rendered  # strict invariants, tracing, hub: nobody asked
    store.save_jsonl(str(tmp_path / "telemetry.jsonl"))
    assert rendered == Counter(range(40))


@pytest.mark.parametrize(
    "make_spec, learns", [(dense_smoke_spec, True), (paper_smoke_spec, False)]
)
def test_a_record_renders_its_model_as_it_was_at_its_interval(make_spec, learns):
    # The record keeps the model's state, not its dict: rendering it after
    # the run gives the dict ``describe()`` gave while the interval ran,
    # also for the learned model, whose weights move every interval.
    result = assemble_run(make_spec())
    planner = result.bundle.controller.planner
    captured = []
    planner.add_plan_listener(lambda record: captured.append(planner.model.describe()))
    result.bundle.run()
    records = list(finish_run(result).extras["telemetry"])
    assert len(records) == len(captured) > 1
    assert [r.to_dict()["solver"]["model"] for r in records] == captured
    assert (captured[0] != captured[-1]) is learns


def test_a_learned_state_retains_a_fraction_of_a_described_dict():
    """One ``state()`` of a trained 8-class learned model against one
    ``describe()``: 752 B against 4,477 B (0.17x) on CPython 3.11, each the
    mean over 100 calls kept alive (free lists hide a single call's
    floats, dicts and lists from ``tracemalloc``)."""
    statuses = [
        ClassStatus(
            ServiceClass("olap{}".format(i + 1), "olap", VelocityGoal(0.5), 1),
            4_000.0 + 500.0 * i,
            0.3 + 0.05 * i,
        )
        for i in range(7)
    ]
    statuses.append(
        ClassStatus(ServiceClass("oltp", "oltp", ResponseTimeGoal(0.25), 3), 8_000.0, 0.2)
    )
    model = trained_model(statuses, seed=5)

    def retained(take, calls=100):
        take()  # the learned model builds its class-key tuple once
        kept = [None] * calls
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(calls):
                kept[index] = take()
            return (tracemalloc.get_traced_memory()[0] - before) / calls
        finally:
            tracemalloc.stop()

    assert len(model.describe()["classes"]) == 8
    assert retained(model.state) <= MAX_STATE_SHARE_OF_DESCRIBE * retained(
        model.describe
    )


def test_calls_and_class_state_lookups_per_interval_stay_under_the_ceilings(
    monkeypatch,
):
    profile = cProfile.Profile(builtins=False)
    run_interval = SchedulingPlanner.run_interval

    def profiled(planner, trigger="scheduled"):
        profile.enable()
        try:
            return run_interval(planner, trigger)
        finally:
            profile.disable()

    monkeypatch.setattr(SchedulingPlanner, "run_interval", profiled)
    result, _, _ = run_with_hub()
    intervals = len(result.extras["telemetry"])
    stats = pstats.Stats(profile)
    lookups = sum(
        calls
        for (path, _, name), (_, calls, _, _, _) in stats.stats.items()
        if name == "_state" and path.replace("\\", "/").endswith("core/dispatcher.py")
    )
    assert 0 < lookups / intervals <= MAX_CLASS_STATE_LOOKUPS
    assert stats.total_calls / intervals <= MAX_CALLS_PER_INTERVAL


def test_the_bytes_an_interval_retains_stay_under_the_ceiling():
    gc.collect()
    tracemalloc.start()
    try:
        result, _, events = run_with_hub()
        history = result.bundle.controller.planner.history
        intervals = len(history)
        others = [e for e in events if e.type != "interval"]  # stay alive, not weighed
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del events[:], history[:]
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert intervals == 40 and others
    assert 0 < freed / intervals <= MAX_BYTES_PER_INTERVAL


@pytest.mark.parametrize(
    "make_spec, solves, evaluations, ceiling",
    [
        (paper_smoke_spec, 4, 4 * 406, MAX_CALLS_PER_EXHAUSTIVE_SOLVE),
        (dense_smoke_spec, 40, 4331, MAX_CALLS_PER_GREEDY_SOLVE),
    ],
)
def test_solver_calls_per_solve_stay_under_the_ceiling_at_the_same_evaluations(
    monkeypatch, make_spec, solves, evaluations, ceiling
):
    profile = cProfile.Profile(builtins=False)
    solve = PerformanceSolver.solve

    def profiled(solver, *args, **kwargs):
        profile.enable()
        try:
            return solve(solver, *args, **kwargs)
        finally:
            profile.disable()

    monkeypatch.setattr(PerformanceSolver, "solve", profiled)
    solver = run_spec(make_spec()).bundle.controller.solver
    assert (solver.solve_calls, solver.evaluations) == (solves, evaluations)
    assert pstats.Stats(profile).total_calls / solves <= ceiling


def test_events_and_records_are_freed_by_refcounting_alone():
    # An event points at its record and nothing points back: with the cyclic
    # collector off for the whole run, once the subscriber's list and the
    # planner's history let go of them (the run itself stays alive, its last
    # interval still in the hub's snapshot state), nothing the collector then
    # finds unreachable is an event or a record.
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        result, hub, events = run_with_hub()
        history = result.bundle.controller.planner.history
        assert [e.record for e in events if e.type == "interval"] == history
        assert len(history) == 40
        del events[:], history[:]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [
            obj for obj in gc.garbage
            if isinstance(obj, (LiveEvent, ControlIntervalRecord))
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert leaked == []
    assert hub.snapshot()["shards"]["fleet"]["data"]["interval_index"] == 39
