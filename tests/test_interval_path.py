"""Pins on the cost of the per-interval control path and its observers.

One run for most of them: :func:`tests.conftest.dense_smoke_spec` (8
classes, 1 s interval, strict invariants, tracing) with a hub whose one
subscriber keeps every event, as the benchmark's ``control_dense`` workload
does.  The solver's pin adds :func:`tests.conftest.paper_smoke_spec` for its
exhaustive search.
"""

import cProfile
import gc
import pstats
from collections import Counter

import pytest

from repro.core.planner import SchedulingPlanner
from repro.core.solver import PerformanceSolver
from repro.experiments.runner import run_spec
from repro.metrics.telemetry import ControlIntervalRecord
from repro.obs.live import LiveEvent, TelemetryHub
from tests.conftest import dense_smoke_spec, paper_smoke_spec

#: Ceiling on ``Dispatcher._state`` look-ups per control interval: 45 today
#: (8 by ``install_plan``, 16 by the planner's mix snapshot and telemetry,
#: 21 by the three dispatcher invariants over 7 gated classes); 187 when
#: every number was its own accessor call.
MAX_CLASS_STATE_LOOKUPS = 50

#: Ceiling on Python-level calls under ``run_interval``, listeners included:
#: 938 today, 1,316 when the publisher rendered the record every interval.
MAX_CALLS_PER_INTERVAL = 1035

#: Ceilings on Python-level calls under ``PerformanceSolver.solve``, per solve.
#: Three classes, exhaustive: 575 today, 5,472 when each of the 406
#: allocations cost a generator step, a tuple and three method calls.  Eight
#: classes, greedy: 278 today, 312 before the bound screen.
MAX_CALLS_PER_EXHAUSTIVE_SOLVE = 650
MAX_CALLS_PER_GREEDY_SOLVE = 312


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
