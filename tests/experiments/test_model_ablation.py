"""The model-ablation experiment and its CLI/bench wrappers."""

import json

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.model_ablation import (
    DEFAULT_MODELS,
    DEFAULT_SCENARIOS,
    ablation_table,
    run_model_ablation,
)


class TestRunModelAblation:
    def test_single_scenario_smoke_compares_all_models(self):
        report = run_model_ablation(scenarios=("paper-figure3",), smoke=True)
        entry = report["scenarios"]["paper-figure3"]
        assert set(entry) == set(DEFAULT_MODELS)
        for summary in entry.values():
            assert 0.0 <= summary["attainment_mean"] <= 1.0
            assert summary["prediction_mae_mean"] >= 0.0
            assert summary["intervals"] > 0
        # The learned entry really was trained on the paper run's trace.
        assert entry["learned"]["trained_observations"] > 0
        assert json.dumps(report)  # JSON-exportable end to end

    def test_defaults_cover_the_shift_scenarios(self):
        assert "diurnal" in DEFAULT_SCENARIOS
        assert "flash-crowd" in DEFAULT_SCENARIOS

    def test_non_qs_scenario_rejected(self, tmp_path):
        import dataclasses

        from repro.scenarios import find_scenario, save_scenario

        scenario = find_scenario("paper-figure3")
        hostile = dataclasses.replace(scenario, name="mpl-only", controller="mpl")
        path = tmp_path / "mpl-only.yaml"
        save_scenario(hostile, str(path))
        with pytest.raises(ExperimentError):
            run_model_ablation(scenarios=(str(path),), smoke=True)


class TestFormatTable:
    def test_renders_every_model_row(self):
        report = {
            "smoke": True,
            "models": ["paper", "oracle"],
            "scenarios": {
                "demo": {
                    "paper": {
                        "attainment_mean": 0.8,
                        "prediction_mae_mean": 0.1,
                        "violations": 0,
                    },
                    "oracle": {
                        "attainment_mean": 0.5,
                        "prediction_mae_mean": None,
                        "violations": None,
                    },
                }
            },
        }
        table = ablation_table(report).text()
        assert "demo" in table
        assert "paper" in table and "oracle" in table
        assert "0.8000" in table
        assert "-" in table  # None renders as a dash


class TestAblateModelsCLI:
    def test_cli_writes_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "ablation.json")
        code = main([
            "ablate-models", "--scenarios", "paper-figure3",
            "--models", "paper", "oracle", "--output", out_path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Model ablation" in out
        with open(out_path) as handle:
            report = json.load(handle)
        assert "paper-figure3" in report["scenarios"]

    def test_cli_unknown_scenario_errors(self, capsys):
        assert main(["ablate-models", "--scenarios", "nope"]) == 2
        assert "ablation error" in capsys.readouterr().err
