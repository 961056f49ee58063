"""Pins on the cost of the per-query event path (two-period smoke runs)."""

import ast
import cProfile
import gc
import pstats
from pathlib import Path

import pytest

import repro
from repro.config import WorkloadScaleConfig, default_config
from repro.dbms.query import Query
from repro.experiments import ExperimentSpec, run_spec
from repro.workloads.schedule import constant_schedule

#: Ceiling on Python-level calls per completed query that bypasses
#: interception (59.9 / 62.7 under none / qs before the engine stopped
#: re-deriving per query what it had just computed, 43.5 / 46.05 after,
#: 33.6 / 35.2 once draws, folds and lifecycle edges were bound once,
#: 28.5 / 29.4 once a job in service became one heap entry and the pools
#: stopped calling ``Timer.arm``, 26.6 / 25.5 once phases were built without
#: ``Phase``'s generated constructor and the dispatcher and monitor stopped
#: hearing the completions of classes they do not act on).
#: A ceiling, so interpreters that count calls slightly differently fit.
MAX_CALLS_PER_QUERY = 28

#: The per-statement functions that read a lifecycle state (file suffix,
#: class, function): they read the members bound as module names in
#: ``dbms/query.py``, never ``QueryState.<member>`` — on CPython 3.11 a
#: read through the enum class costs about ten module-global reads.
STATE_READERS = (
    ("dbms/query.py", "Query", "__init__"),
    ("dbms/engine.py", "ExecutionEngine", "execute"),
    ("dbms/engine.py", "ExecutionEngine", "_finish"),
    ("dbms/engine.py", "DatabaseEngine", "_start"),
    ("dbms/engine.py", "DatabaseEngine", "_finish"),
    ("workloads/client.py", "ClosedLoopClient", "_on_complete"),
)

#: The engine's one completion hook: the patroller's table bookkeeping and
#: ``completed`` fan-out, run exactly once per finished statement.
COMPLETION_HOOK = ("patroller/patroller.py", "_on_completion")

#: Questions a bypassing statement must not be asked at all: their answer
#: is "not mine" every time (file suffix, function name).
NOT_PER_BYPASSING_QUERY = (
    ("patroller/tables.py", "find"),
    ("core/service_class.py", "directly_controlled"),
    ("workloads/schedule.py", "period_at"),
    # The PS pools write their timer's key in place.
    ("sim/events.py", "arm"),
    # Routed to the gated / velocity-sampled classes only.
    ("core/dispatcher.py", "on_completion"),
    ("core/monitor.py", "on_completed"),
)


def smoke_spec(controller, oltp_only):
    config = default_config(
        seed=7, scale=WorkloadScaleConfig(period_seconds=30.0, num_periods=2)
    )
    schedule = None
    if oltp_only:
        # No OLAP client, so every statement bypasses interception: client
        # -> patroller -> engine -> PS pools -> completion listeners.
        schedule = constant_schedule(30.0, 2, {"class1": 0, "class2": 0, "class3": 20})
    return ExperimentSpec(controller=controller, config=config, schedule=schedule)


@pytest.mark.parametrize("controller", ["none", "qs"])
def test_completed_queries_and_jobs_are_freed_by_refcounting_alone(controller):
    # No reference cycle on the hot path (the intercepted and the parallel
    # OLAP statements of the full schedule included): with the cyclic
    # collector off for the whole run, nothing it finds unreachable
    # afterwards is a query (a job in service is a tuple that holds its
    # query or its parallel phase's barrier list).
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        result = run_spec(smoke_spec(controller, oltp_only=False))
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, Query)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert result.bundle.engine.completed_queries > 1000
    assert result.bundle.patroller.intercepted_count > 0
    assert leaked == []


@pytest.mark.parametrize("controller", ["none", "qs"])
def test_python_calls_per_bypassing_query_stay_under_the_ceiling(controller):
    profile = cProfile.Profile(builtins=False)
    result = profile.runcall(run_spec, smoke_spec(controller, oltp_only=True))
    patroller = result.bundle.patroller
    assert patroller.intercepted_count == 0 and patroller.bypassed_count > 1000
    stats = pstats.Stats(profile)
    completed = result.bundle.engine.completed_queries
    assert stats.total_calls / completed <= MAX_CALLS_PER_QUERY
    hook_calls = 0
    for (path, _, name), (_, calls, _, _, _) in stats.stats.items():
        pin = (path.replace("\\", "/").rpartition("repro/")[2], name)
        if pin in NOT_PER_BYPASSING_QUERY:
            # Set-up and the control loop may ask; the query path may not.
            assert calls < completed / 100, (path, name, calls)
        elif pin == COMPLETION_HOOK:
            hook_calls = calls
    assert hook_calls == completed


def test_every_pinned_function_is_defined_in_the_package():
    # A rename must not silently void a pin: each (file, function) names a
    # real definition under src/repro.
    root = Path(repro.__file__).parent
    for path, name in NOT_PER_BYPASSING_QUERY + (COMPLETION_HOOK,):
        tree = ast.parse((root / path).read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert name in defined, (path, name)


def test_per_statement_state_reads_are_module_names():
    root = Path(repro.__file__).parent
    for path, class_name, name in STATE_READERS:
        tree = ast.parse((root / path).read_text())
        (owner,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == class_name
        ]
        (function,) = [
            node for node in owner.body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        reads = [
            node.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "QueryState"
        ]
        assert reads == [], (path, class_name, name, reads)
