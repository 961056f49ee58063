"""Tests for the utility function families."""

import pytest

from repro.core.utility import (
    PiecewiseLinearUtility,
    SigmoidUtility,
    StepUtility,
    effective_weight,
    make_utility,
)
from repro.errors import ConfigurationError

ALL_FAMILIES = [
    PiecewiseLinearUtility(),
    SigmoidUtility(),
    StepUtility(),
]


class TestEffectiveWeight:
    def test_exponential(self):
        assert effective_weight(1, 4.0) == pytest.approx(1.0)
        assert effective_weight(2, 4.0) == pytest.approx(4.0)
        assert effective_weight(3, 4.0) == pytest.approx(16.0)

    def test_base_one_is_linear(self):
        assert effective_weight(3, 1.0) == 3


@pytest.mark.parametrize("utility", ALL_FAMILIES, ids=lambda u: type(u).__name__)
class TestSharedContract:
    def test_monotone_in_achievement(self, utility):
        points = [utility.value(r / 10.0, 2) for r in range(0, 25)]
        assert all(a <= b + 1e-12 for a, b in zip(points, points[1:]))

    def test_more_important_violator_worth_more_to_fix(self, utility):
        """Raising r 0.5 -> 1.0 must gain more for higher importance."""
        gain_low = utility.value(1.0, 1) - utility.value(0.5, 1)
        gain_high = utility.value(1.0, 3) - utility.value(0.5, 3)
        assert gain_high > gain_low

    def test_importance_mostly_irrelevant_above_goal(self, utility):
        """Section 4.3: importance is in effect only while violating."""
        surplus_low = utility.value(1.5, 1) - utility.value(1.0, 1)
        surplus_high = utility.value(1.5, 3) - utility.value(1.0, 3)
        below_high = utility.value(1.0, 3) - utility.value(0.5, 3)
        assert surplus_high <= below_high * 0.5
        assert surplus_high == pytest.approx(surplus_low, abs=1e-9)

    def test_surplus_saturates(self, utility):
        assert utility.value(5.0, 2) == pytest.approx(utility.value(2.0, 2), rel=1e-6)

    def test_negative_achievement_keeps_gradient(self, utility):
        """Deep violations must stay strictly worse than shallow ones so
        the solver never loses its slope toward a rescue."""
        assert utility.value(-1.0, 2) < utility.value(0.0, 2)

    def test_callable_protocol(self, utility):
        assert utility(1.0, 2) == utility.value(1.0, 2)


class TestPiecewiseLinear:
    def test_below_goal_slope_is_weight(self):
        utility = PiecewiseLinearUtility(surplus_slope=0.05, importance_base=1.0)
        assert utility.value(0.5, 2) == pytest.approx(1.0)
        assert utility.value(0.9, 2) == pytest.approx(1.8)

    def test_surplus_slope(self):
        utility = PiecewiseLinearUtility(surplus_slope=0.1, importance_base=1.0)
        assert utility.value(1.5, 2) == pytest.approx(2.0 + 0.05)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearUtility(surplus_slope=-0.1)
        with pytest.raises(ConfigurationError):
            PiecewiseLinearUtility(importance_base=0.5)


class TestSigmoid:
    def test_half_weight_at_goal(self):
        utility = SigmoidUtility(importance_base=1.0)
        assert utility.value(1.0, 2) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            SigmoidUtility(importance_base=0.5)


class TestStep:
    def test_jump_at_goal(self):
        utility = StepUtility(importance_base=1.0)
        below = utility.value(0.99, 2)
        at_goal = utility.value(1.0, 2)
        assert at_goal - below > 1.5


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_utility("piecewise"), PiecewiseLinearUtility)
        assert isinstance(make_utility("sigmoid"), SigmoidUtility)
        assert isinstance(make_utility("step"), StepUtility)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_utility("parabolic")
