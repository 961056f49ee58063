"""PaperAnalyticModel: dispatch equivalence and the corrupt/reset seam."""

import pytest

from repro.core.modeling import (
    ClassMixState,
    IntervalObservation,
    MixSnapshot,
    OLAPVelocityModel,
    OLTPResponseTimeModel,
    PaperAnalyticModel,
)
from repro.core.service_class import ResponseTimeGoal, ServiceClass, VelocityGoal
from repro.core.solver import ClassStatus
from repro.errors import ConfigurationError


def olap_status(value=0.4, limit=10_000.0):
    sc = ServiceClass("c1", "olap", VelocityGoal(0.5), 1)
    return ClassStatus(sc, limit, value)


def oltp_status(value=0.3, limit=10_000.0):
    sc = ServiceClass("c3", "oltp", ResponseTimeGoal(0.25), 3)
    return ClassStatus(sc, limit, value)


def one_class_mix(time=0.0):
    state = ClassMixState("c1", "olap", 10_000.0, 0.4, 2, 1, 500.0)
    return MixSnapshot(time=time, classes=(state,))


class TestDispatchEquivalence:
    """The protocol wrapper must be arithmetic-identical to the bare pair
    (the golden regression data is pinned to this)."""

    def test_olap_matches_bare_velocity_model(self):
        model = PaperAnalyticModel()
        for new_limit in (5_000.0, 10_000.0, 20_000.0):
            assert model.predict(olap_status(), new_limit) == (
                OLAPVelocityModel.predict(0.4, 10_000.0, new_limit)
            )

    def test_oltp_matches_bare_linear_model(self):
        oltp = OLTPResponseTimeModel(prior_slope=-5e-6)
        model = PaperAnalyticModel(oltp_model=OLTPResponseTimeModel(prior_slope=-5e-6))
        for new_limit in (5_000.0, 10_000.0, 20_000.0):
            assert model.predict(oltp_status(), new_limit) == (
                oltp.predict(0.3, 10_000.0, new_limit)
            )

    def test_mix_argument_is_ignored(self):
        model = PaperAnalyticModel()
        with_mix = model.predict(olap_status(), 20_000.0, one_class_mix())
        without = model.predict(olap_status(), 20_000.0, None)
        assert with_mix == without


class TestObserve:
    def test_no_delta_leaves_regression_untouched(self):
        """Observing is a no-op: the slope stays the calibrated constant."""
        model = PaperAnalyticModel(oltp_model=OLTPResponseTimeModel(prior_slope=-4e-6))
        model.observe(IntervalObservation(0.0, one_class_mix()))
        assert model.oltp.slope == -4e-6


class TestCorruptResetSeam:
    def test_corrupt_is_refused_without_online_state(self):
        model = PaperAnalyticModel()
        with pytest.raises(ConfigurationError, match="no online state"):
            model.corrupt("regression")
        model.reset()
        assert model.oltp.slope == OLTPResponseTimeModel().slope

    def test_unknown_corruption_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PaperAnalyticModel().corrupt("cosmic-rays")

    def test_describe_reports_name_and_slope(self):
        import json

        model = PaperAnalyticModel(oltp_model=OLTPResponseTimeModel(prior_slope=-4e-6))
        description = model.describe()
        assert description == {"name": "paper", "slope": -4e-6}
        json.dumps(description)

    def test_state_is_one_object_until_the_slope_changes(self):
        model = PaperAnalyticModel()
        state = model.state()
        assert model.state() is state
        assert (state.slope, state.observations) == (model.oltp.slope, None)
        model.oltp.slope = -2e-6
        assert model.state() is not state
        assert model.state().to_dict() == {"name": "paper", "slope": -2e-6}
        assert state.to_dict() == {"name": "paper", "slope": -8e-6}
