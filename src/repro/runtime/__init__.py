"""Execution-backend abstraction.

``repro.runtime`` is the seam between the controller stack and whatever
actually executes queries: the protocols (:class:`Clock`,
:class:`TimerService`, :class:`ExecutionEngine`, :class:`ExecutionBackend`),
clock helpers and the concrete backends (:class:`SimulationBackend`,
:class:`RealTimeBackend`, :class:`SQLiteEngine`).  Like every package's,
its exports load on first use — the backends depend on
``repro.dbms.engine``/``repro.sim.engine``, which themselves annotate
against these protocols, and lazy loading keeps that cycle open.
"""

from repro import lazy_exports

_EXPORTS = {
    "AdmissionGate": "repro.runtime.protocols",
    "CallableClock": "repro.runtime.clock",
    "Clock": "repro.runtime.protocols",
    "DEFAULT_PRIORITY": "repro.runtime.protocols",
    "ExecutionBackend": "repro.runtime.protocols",
    "ExecutionEngine": "repro.runtime.protocols",
    "make_backend": "repro.runtime.factory",
    "RealTimeBackend": "repro.runtime.realtime",
    "RealTimeTimerService": "repro.runtime.realtime",
    "SimulationBackend": "repro.runtime.sim_backend",
    "SQLiteEngine": "repro.runtime.sqlite_engine",
    "TimerHandle": "repro.runtime.protocols",
    "TimerService": "repro.runtime.protocols",
    "WallClock": "repro.runtime.clock",
    "as_clock": "repro.runtime.clock",
}

#: Valid values for ``--backend`` / ``ExperimentSpec(backend=...)``.
BACKEND_NAMES = ("sim", "sqlite")

__all__ = ["BACKEND_NAMES", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
