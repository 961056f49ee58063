"""The engine contract is written once, in the ExecutionEngine base class.

Both engines subclass it and add only how an admitted statement runs, so
a comparison of the two on identical input differs in execution alone.
"""

import pytest

import repro.runtime.protocols as protocols
from repro.dbms.engine import DatabaseEngine
from repro.runtime import ExecutionEngine
from repro.runtime.sqlite_engine import SQLiteEngine

#: Everything the control stack calls on an engine.
CONTRACT = (
    "execute",
    "admit_released",
    "executing_queries",
    "completed_queries",
    "executing_snapshot",
    "executing_cost",
    "set_completion_hook",
    "set_admission_gate",
)


def test_the_contract_lives_in_the_base_class():
    assert isinstance(ExecutionEngine, type)
    for name in CONTRACT + ("_finish", "close"):
        assert name in vars(ExecutionEngine), name
    assert not hasattr(protocols, "ExecutionEngine")


@pytest.mark.parametrize("engine_class", [DatabaseEngine, SQLiteEngine])
def test_engines_subclass_it_and_define_no_contract_member(engine_class):
    assert issubclass(engine_class, ExecutionEngine)
    redefined = sorted(set(CONTRACT) & set(vars(engine_class)))
    assert redefined == []
    assert "_start" in vars(engine_class)


def test_sqlite_uses_the_shared_completion_tail():
    assert "_finish" not in vars(SQLiteEngine)
    assert SQLiteEngine._finish is ExecutionEngine._finish
