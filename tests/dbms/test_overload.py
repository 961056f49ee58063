"""Tests for the thrashing model."""

import pytest

from repro.config import OverloadConfig
from repro.dbms.overload import BETA, OverloadModel
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingResource


def make_model(knee=1000.0):
    sim = Simulator()
    pools = [
        ProcessorSharingResource(sim, "cpu", 2),
        ProcessorSharingResource(sim, "disk", 4),
    ]
    return OverloadModel(OverloadConfig(knee_cost=knee), pools), pools


def efficiency_at(cost, knee=1000.0):
    model, _ = make_model(knee)
    model.admit(cost)
    return model.efficiency


def test_efficiency_is_one_below_knee():
    assert efficiency_at(0.0) == 1.0
    assert efficiency_at(999.0) == 1.0
    assert efficiency_at(1000.0) == 1.0


def test_efficiency_degrades_hyperbolically_past_knee():
    # x past the knee (as a fraction of it): 1 / (1 + BETA * x).
    assert BETA == 1.5
    assert efficiency_at(1500.0) == pytest.approx(1.0 / 1.75)
    assert efficiency_at(2000.0) == pytest.approx(1.0 / 2.5)


def test_efficiency_monotone_decreasing():
    values = [efficiency_at(c) for c in range(0, 5000, 100)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_admit_retire_tracks_total_and_applies_to_pools():
    model, pools = make_model(knee=1000.0)
    model.admit(600.0)
    model.admit(600.0)
    assert model.total_cost == pytest.approx(1200.0)
    expected = 1.0 / (1.0 + BETA * 0.2)
    for pool in pools:
        assert pool.efficiency == pytest.approx(expected)
    model.retire(600.0)
    for pool in pools:
        assert pool.efficiency == 1.0


def test_peak_cost_tracked():
    model, _ = make_model()
    model.admit(300.0)
    model.admit(500.0)
    model.retire(300.0)
    assert model.peak_cost == pytest.approx(800.0)


def test_retire_clamps_float_drift():
    model, _ = make_model()
    model.admit(100.0)
    model.retire(100.0 + 1e-9)
    assert model.total_cost == 0.0


def test_invalid_config():
    with pytest.raises(ConfigurationError):
        OverloadConfig(knee_cost=0.0).validate()
