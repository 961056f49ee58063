"""Protocol conformance and the model registry."""

from typing import NamedTuple

import pytest

from repro.config import PlannerConfig
from repro.core.modeling import (
    LearnedPerformanceModel,
    OracleLastValueModel,
    PaperAnalyticModel,
    PerformanceModel,
    make_model,
    parse_model_spec,
    save_model,
)
from repro.core.modeling.analytic import OLTP_SLOPE_PRIOR
from repro.core.solver import ClassStatus, PerformanceSolver
from repro.core.utility import PiecewiseLinearUtility
from repro.errors import ConfigurationError


ALL_MODELS = [PaperAnalyticModel, LearnedPerformanceModel, OracleLastValueModel]


class TestProtocolConformance:
    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_models_satisfy_structural_protocol(self, factory):
        assert isinstance(factory(), PerformanceModel)

    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_describe_is_json_safe(self, factory):
        import json

        json.dumps(factory().describe())

    def test_an_incomplete_object_fails_the_check(self):
        class NotAModel:
            def predict(self, status, proposed_limit, mix=None):
                return 0.0

        assert not isinstance(NotAModel(), PerformanceModel)

    def test_the_seven_protocol_members_are_all_a_model_needs(self, three_classes):
        class State(NamedTuple):
            name: str
            slope = None
            observations = None

            def to_dict(self):
                return {"name": self.name}

        class HoldsLastValue:
            name = "minimal"

            def predict(self, status, proposed_limit, mix=None):
                return status.current_value

            def observe(self, observation):
                pass

            def state(self):
                return State(self.name)

            def describe(self):
                return self.state().to_dict()

            def corrupt(self, mode="regression"):
                pass

            def reset(self):
                pass

        model = HoldsLastValue()
        assert isinstance(model, PerformanceModel)
        solver = PerformanceSolver(
            utility=PiecewiseLinearUtility(),
            system_cost_limit=30_000.0,
            model=model,
        )
        plan = solver.solve(
            [ClassStatus(c, 10_000.0, c.goal.target * 0.9) for c in three_classes]
        )
        assert sorted(plan.as_dict()) == ["class1", "class2", "class3"]
        assert plan.total_allocated == 30_000.0
        assert solver.last_evaluations > 0


class TestRegistry:
    def test_parse_base_names(self):
        assert parse_model_spec("paper") == ("paper", None)
        assert parse_model_spec("oracle") == ("oracle", None)
        assert parse_model_spec("learned") == ("learned", None)
        assert parse_model_spec("learned:/tmp/m.json") == ("learned", "/tmp/m.json")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_model_spec("quantum")

    def test_argument_only_valid_for_learned(self):
        with pytest.raises(ConfigurationError):
            parse_model_spec("paper:/tmp/m.json")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_model_spec("")

    def test_make_paper_uses_planner_calibration(self):
        model = make_model("paper")
        assert isinstance(model, PaperAnalyticModel)
        assert model.oltp.slope == OLTP_SLOPE_PRIOR

    def test_make_oracle(self):
        assert isinstance(make_model("oracle"), OracleLastValueModel)

    def test_make_learned_fresh(self):
        model = make_model("learned")
        assert isinstance(model, LearnedPerformanceModel)
        assert model.observations == 0

    def test_make_learned_from_file(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(LearnedPerformanceModel(ridge=2.5), path)
        loaded = make_model("learned:" + path)
        assert isinstance(loaded, LearnedPerformanceModel)
        assert loaded.ridge == 2.5

    def test_planner_config_validates_model_spec(self):
        with pytest.raises(ConfigurationError):
            PlannerConfig(model="quantum").validate()
        PlannerConfig(model="learned").validate()
