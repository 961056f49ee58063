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
        for slope in (0.0, float("nan")):
            with pytest.raises(ConfigurationError):
                OLTPResponseTimeModel(prior_slope=slope)
