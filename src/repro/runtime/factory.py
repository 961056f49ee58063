"""Backend construction by name.

The single place that maps the user-facing backend identifiers
(``repro run --backend {sim,sqlite}``, ``ExperimentSpec(backend=...)``)
to concrete :class:`~repro.runtime.protocols.ExecutionBackend` instances.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Mapping, Optional

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams


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
):
    """Build the execution backend called ``name`` (``"sim"``/``"sqlite"``).

    Extra keyword ``options`` pass through to the backend constructor
    (e.g. ``workers=`` or ``statements_per_demand_second=`` for sqlite),
    once :func:`check_backend_options` has accepted them.
    """
    check_backend_options(name, options)
    if name == "sim":
        from repro.runtime.sim_backend import SimulationBackend

        return SimulationBackend(config, rng)
    from repro.runtime.realtime import RealTimeBackend

    return RealTimeBackend(config, rng, **options)
