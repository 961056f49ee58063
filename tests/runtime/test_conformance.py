"""The backend-conformance suite, run against both shipped backends."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, default_config
from repro.dbms.engine import DatabaseEngine
from repro.runtime import RealTimeTimerService, SQLiteEngine, make_backend
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.runtime.conformance import CONFORMANCE_CHECKS, run_conformance

#: Noise-free optimizer so estimated costs are exactly checkable.
def _config() -> SimulationConfig:
    config = default_config(seed=5)
    return config


def _factory(name):
    def build():
        options = {}
        if name == "sqlite":
            # Small data + few workers keep each check sub-second.
            options = dict(workers=4, lineitem_rows=300, stock_rows=100)
        return make_backend(name, _config(), RandomStreams(5), **options)

    return build


@pytest.mark.parametrize("backend_name", ["sim", "sqlite"])
@pytest.mark.parametrize("check_name", sorted(CONFORMANCE_CHECKS))
def test_conformance_check_passes(backend_name, check_name):
    timers, engine = _factory(backend_name)()
    try:
        problems = CONFORMANCE_CHECKS[check_name](timers, engine)
    finally:
        engine.close()
    assert problems == []


@pytest.mark.parametrize("backend_name", ["sim", "sqlite"])
def test_full_suite_via_runner(backend_name):
    results = run_conformance(_factory(backend_name))
    assert set(results) == set(CONFORMANCE_CHECKS)
    assert all(problems == [] for problems in results.values()), results


def test_backend_names_match_protocol():
    pairs = {name: _factory(name)() for name in ("sim", "sqlite")}
    try:
        assert [type(part) for part in pairs["sim"]] == [Simulator, DatabaseEngine]
        assert [type(part) for part in pairs["sqlite"]] == [
            RealTimeTimerService,
            SQLiteEngine,
        ]
        # Each engine runs on the timer service it was built with.
        for timers, engine in pairs.values():
            assert engine.sim is timers
            assert timers.now >= 0.0
            assert engine.executing_queries == 0
    finally:
        for _, engine in pairs.values():
            engine.close()


def test_unknown_backend_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        make_backend("oracle", _config(), RandomStreams(5))
