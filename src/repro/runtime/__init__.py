"""Execution-backend abstraction.

``repro.runtime`` is the seam between the controller stack and whatever
actually executes queries.  The protocols (:class:`Clock`,
:class:`TimerService`, :class:`ExecutionEngine`, :class:`ExecutionBackend`)
and clock helpers import eagerly; the concrete backends
(:class:`SimulationBackend`, :class:`RealTimeBackend`,
:class:`SQLiteEngine`) load lazily via PEP 562 —
they depend on ``repro.dbms.engine``/``repro.sim.engine``, which themselves
annotate against these protocols, and lazy loading keeps that cycle open.
"""

from repro.runtime.clock import CallableClock, WallClock, as_clock
from repro.runtime.protocols import (
    DEFAULT_PRIORITY,
    AdmissionGate,
    Clock,
    ExecutionBackend,
    ExecutionEngine,
    TimerHandle,
    TimerService,
)

#: Valid values for ``--backend`` / ``ExperimentSpec(backend=...)``.
BACKEND_NAMES = ("sim", "sqlite")

_LAZY = {
    "SimulationBackend": ("repro.runtime.sim_backend", "SimulationBackend"),
    "RealTimeBackend": ("repro.runtime.realtime", "RealTimeBackend"),
    "RealTimeTimerService": ("repro.runtime.realtime", "RealTimeTimerService"),
    "SQLiteEngine": ("repro.runtime.sqlite_engine", "SQLiteEngine"),
    "make_backend": ("repro.runtime.factory", "make_backend"),
}

__all__ = [
    "AdmissionGate",
    "BACKEND_NAMES",
    "CallableClock",
    "Clock",
    "DEFAULT_PRIORITY",
    "ExecutionBackend",
    "ExecutionEngine",
    "make_backend",
    "RealTimeBackend",
    "RealTimeTimerService",
    "SimulationBackend",
    "SQLiteEngine",
    "TimerHandle",
    "TimerService",
    "WallClock",
    "as_clock",
]


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name)
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
