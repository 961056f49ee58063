"""Backend construction by name.

The single place that maps the user-facing backend identifiers
(``repro run --backend {sim,sqlite}``, ``ExperimentSpec(backend=...)``)
to what a backend is: one timer service and one execution engine.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:
    from repro.dbms.engine import ExecutionEngine
    from repro.runtime.protocols import TimerService


def _count(value: Any) -> Optional[str]:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        return "must be an integer >= 1"
    return None


def _rate(value: Any) -> Optional[str]:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 < value < math.inf
    ):
        return "must be a finite number > 0"
    return None


def _path(value: Any) -> Optional[str]:
    return None if isinstance(value, str) else "must be a string"


#: Per backend, the options its constructor takes and a check of each
#: value (an error message, or None when the value is fine).
BACKEND_OPTIONS: Dict[str, Dict[str, Callable[[Any], Optional[str]]]] = {
    "sim": {},
    "sqlite": {
        "db_path": _path,
        "workers": _count,
        "statements_per_demand_second": _rate,
        "max_statements_per_query": _count,
        "lineitem_rows": _count,
        "stock_rows": _count,
        "districts": _count,
    },
}


def check_backend_options(name: str, options: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` naming the first bad option.

    An unknown key names itself and the keys the backend accepts.
    """
    checks = BACKEND_OPTIONS.get(name)
    if checks is None:
        raise ConfigurationError(
            "unknown backend {!r} (expected 'sim' or 'sqlite')".format(name)
        )
    for key, value in options.items():
        check = checks.get(key)
        if check is None:
            raise ConfigurationError(
                "backend_options.{}: unknown option for the {!r} backend "
                "(allowed: {})".format(key, name, ", ".join(sorted(checks)) or "none")
            )
        problem = check(value)
        if problem is not None:
            raise ConfigurationError(
                "backend_options.{} {}, got {!r}".format(key, problem, value)
            )


def make_backend(
    name: str,
    config: SimulationConfig,
    rng: RandomStreams,
    **options: Any,
) -> Tuple["TimerService", "ExecutionEngine"]:
    """Build the ``(timers, engine)`` pair of backend ``name``.

    ``"sim"`` is a :class:`~repro.sim.engine.Simulator` driving a
    :class:`~repro.dbms.engine.DatabaseEngine`; ``"sqlite"`` is a
    :class:`~repro.runtime.realtime.RealTimeTimerService` driving a
    :class:`~repro.runtime.sqlite_engine.SQLiteEngine`, which takes the
    keyword ``options`` (e.g. ``workers=``) once
    :func:`check_backend_options` has accepted them.  The caller runs the
    timer service and closes the engine.
    """
    check_backend_options(name, options)
    # Imported here, so that checking options (scenario validation) loads
    # no engine and a sim run never loads sqlite3.
    if name == "sim":
        from repro.dbms.engine import DatabaseEngine
        from repro.sim.engine import Simulator

        sim = Simulator()
        return sim, DatabaseEngine(sim, config, rng)
    from repro.runtime.realtime import RealTimeTimerService
    from repro.runtime.sqlite_engine import SQLiteEngine

    timers = RealTimeTimerService()
    return timers, SQLiteEngine(timers, config, rng, **options)
