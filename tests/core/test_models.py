"""Tests for the OLAP velocity and OLTP response-time models."""

import pytest

from repro.core.modeling import OLAPVelocityModel, OLTPResponseTimeModel
from repro.errors import ConfigurationError


class TestOLAPVelocityModel:
    def test_paper_equation(self):
        """V^k = V^{k-1} * C^k / C^{k-1} (Section 3.2)."""
        assert OLAPVelocityModel.predict(0.4, 10_000, 20_000) == pytest.approx(0.8)
        assert OLAPVelocityModel.predict(0.4, 10_000, 5_000) == pytest.approx(0.2)

    def test_capped_at_one(self):
        assert OLAPVelocityModel.predict(0.8, 10_000, 30_000) == 1.0

    def test_floor_at_zero(self):
        assert OLAPVelocityModel.predict(-0.5, 10_000, 10_000) == 0.0

    def test_unchanged_limit_predicts_same_velocity(self):
        assert OLAPVelocityModel.predict(0.55, 12_000, 12_000) == pytest.approx(0.55)

    def test_zero_previous_limit_guarded(self):
        # Must not divide by zero; a tiny previous limit saturates to 1.
        assert OLAPVelocityModel.predict(0.5, 0.0, 10_000) == 1.0

    def test_previous_velocity_above_one_clamped(self):
        assert OLAPVelocityModel.predict(1.7, 10_000, 10_000) == pytest.approx(1.0)


class TestOLTPResponseTimeModel:
    def test_paper_equation(self):
        """t^k = t^{k-1} + s (C^k - C^{k-1}) (Section 3.2)."""
        model = OLTPResponseTimeModel(prior_slope=-5e-6)
        # Raising the OLTP reservation by 10K lowers t by 0.05s.
        assert model.predict(0.30, 10_000, 20_000) == pytest.approx(0.25)
        assert model.predict(0.30, 10_000, 5_000) == pytest.approx(0.325)

    def test_initial_slope_equals_prior(self):
        model = OLTPResponseTimeModel(prior_slope=-3e-6)
        assert model.slope == pytest.approx(-3e-6)

    def test_prediction_floored_at_millisecond(self):
        model = OLTPResponseTimeModel(prior_slope=-5e-6)
        assert model.predict(0.01, 0.0, 1e9) == pytest.approx(1e-3)

    def test_positive_prior_rejected(self):
        with pytest.raises(ConfigurationError):
            OLTPResponseTimeModel(prior_slope=1e-6)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            OLTPResponseTimeModel(prior_weight=0.0)
        with pytest.raises(ConfigurationError):
            OLTPResponseTimeModel(forgetting=0.0)
        with pytest.raises(ConfigurationError):
            OLTPResponseTimeModel(forgetting=1.5)

    def test_observations_move_slope(self):
        model = OLTPResponseTimeModel(prior_slope=-4e-6, prior_weight=2.0, forgetting=0.9)
        # Feed consistent observations implying a steeper slope (-8e-6).
        for _ in range(60):
            model.observe(1_000.0, -8e-3)
        assert model.slope < -6e-6
        assert model.observations == 60

    def test_slope_clamped_near_prior(self):
        model = OLTPResponseTimeModel(prior_slope=-4e-6, prior_weight=1.0, forgetting=0.5)
        # Observations implying a *positive* slope must not flip the sign.
        for _ in range(100):
            model.observe(1_000.0, +5e-3)
        assert model.slope < 0
        assert model.slope == pytest.approx(-4e-6 / 3.0)
        # And absurdly steep observations saturate at 3x the prior.
        steep = OLTPResponseTimeModel(prior_slope=-4e-6, prior_weight=1.0, forgetting=0.5)
        for _ in range(100):
            steep.observe(1_000.0, -1.0)
        assert steep.slope == pytest.approx(-4e-6 * 3.0)

    def test_tiny_deltas_ignored(self):
        model = OLTPResponseTimeModel(prior_slope=-4e-6)
        model.observe(0.5, 100.0)  # sub-timeron delta: no information
        assert model.observations == 0
        assert model.slope == pytest.approx(-4e-6)
