"""Execution-backend abstraction.

``repro.runtime`` is the seam between the controller stack and whatever
actually executes queries: the protocols (:class:`Clock`,
:class:`TimerService`), the engine base class :class:`ExecutionEngine`
(defined in :mod:`repro.dbms.engine`), the real-time pieces
(:class:`WallClock`, :class:`RealTimeTimerService`, :class:`SQLiteEngine`)
and :func:`make_backend`, which builds a backend's timer service and
engine as a pair.  Like every package's, its exports load on first use —
the engines depend on ``repro.dbms.engine``/``repro.sim.engine``, which
themselves annotate against these protocols, and lazy loading keeps that
cycle open.
"""

from repro import lazy_exports

_EXPORTS = {
    "AdmissionGate": "repro.runtime.protocols",
    "Clock": "repro.runtime.protocols",
    "ExecutionEngine": "repro.dbms.engine",
    "make_backend": "repro.runtime.factory",
    "RealTimeTimerService": "repro.runtime.realtime",
    "SQLiteEngine": "repro.runtime.sqlite_engine",
    "TimerHandle": "repro.runtime.protocols",
    "TimerService": "repro.runtime.protocols",
    "WallClock": "repro.runtime.clock",
}

#: Valid values for ``--backend`` / ``ExperimentSpec(backend=...)``.
BACKEND_NAMES = ("sim", "sqlite")

__all__ = ["BACKEND_NAMES", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
