"""Backend construction by name.

The single place that maps the user-facing backend identifiers
(``repro run --backend {sim,sqlite}``, ``ExperimentSpec(backend=...)``)
to concrete :class:`~repro.runtime.protocols.ExecutionBackend` instances.
"""

from __future__ import annotations

from typing import Any

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams


def make_backend(
    name: str,
    config: SimulationConfig,
    rng: RandomStreams,
    **options: Any,
):
    """Build the execution backend called ``name`` (``"sim"``/``"sqlite"``).

    Extra keyword ``options`` pass through to the backend constructor
    (e.g. ``workers=`` or ``statements_per_demand_second=`` for sqlite).
    """
    if name == "sim":
        from repro.runtime.sim_backend import SimulationBackend

        return SimulationBackend(config, rng, **options)
    if name == "sqlite":
        from repro.runtime.realtime import RealTimeBackend

        return RealTimeBackend(config, rng, **options)
    raise ConfigurationError(
        "unknown backend {!r} (expected 'sim' or 'sqlite')".format(name)
    )
