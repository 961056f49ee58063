"""CLI surface of the scenario subsystem: run/scenarios/sweep."""

import pytest

from repro.cli import main
from repro.scenarios.loader import LIBRARY_DIR

pytest.importorskip("yaml")


class TestRunScenario:
    def test_run_library_scenario_smoke(self, capsys):
        code = main(["run", "--scenario", "flash-crowd", "--smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario flash-crowd" in out
        assert "invariants=strict" in out
        assert "no violations" in out
        assert "Attainment" in out

    def test_run_scenario_with_faults_reports_injections(self, capsys):
        code = main(["run", "--scenario", "cancel-storm-under-load", "--smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Injected faults (4)" in out
        assert "cancel_storm" in out

    def test_run_scenario_from_a_path(self, tmp_path, capsys):
        from repro.scenarios import find_scenario, save_scenario

        path = tmp_path / "copy.yaml"
        save_scenario(find_scenario("flash-crowd"), path)
        code = main(["run", "--scenario", str(path), "--smoke"])
        assert code == 0
        assert "scenario flash-crowd" in capsys.readouterr().out

    def test_lockstep_shards_run_a_scenario_with_scheduled_faults(self, capsys):
        """Interval mode used to refuse any spec carrying faults."""
        code = main([
            "run", "--scenario", "cancel-storm-under-load", "--smoke",
            "--shards", "2", "--rebalance", "interval",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "rebalance=interval" in out
        assert "global invariants: ok" in out

    def test_unknown_scenario_is_the_same_error_on_the_sharded_path(self, capsys):
        code = main(["run", "--scenario", "atlantis", "--shards", "3"])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    def test_unknown_scenario_is_a_clear_error(self, capsys):
        code = main(["run", "--scenario", "atlantis"])
        err = capsys.readouterr().err
        assert code == 2
        assert "scenario error" in err
        assert "flash-crowd" in err  # lists what IS available

    def test_smoke_without_scenario_rejected(self, capsys):
        code = main(["run", "--smoke"])
        assert code == 2
        assert "--smoke" in capsys.readouterr().err

    def test_scale_flags_conflict_with_scenario(self, capsys):
        code = main(["run", "--scenario", "flash-crowd", "--periods", "3"])
        assert code == 2
        assert "own" in capsys.readouterr().err

    def test_cli_seed_overrides_the_document(self, capsys):
        code = main(
            ["run", "--scenario", "flash-crowd", "--smoke", "--seed", "21"]
        )
        assert code == 0


class TestScenariosCommand:
    def test_lists_the_library(self, capsys):
        code = main(["scenarios"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("paper-figure3", "flash-crowd", "diurnal",
                     "oltp-burst-storm", "cancel-storm-under-load",
                     "adversarial-cost-noise"):
            assert name in out

    def test_validate_all_reports_clean_library(self, capsys):
        code = main(["scenarios", "--validate-all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "7 of 7 scenarios valid" in out

    def test_validate_all_lists_a_negative_seed_as_invalid(self, tmp_path, capsys):
        bad = tmp_path / "neg.yaml"
        source = (LIBRARY_DIR / "flash-crowd.yaml").read_text()
        bad.write_text("\n".join(
            line for line in source.splitlines() if not line.startswith("seed:")
        ) + "\nseed: -5\n")
        code = main(["scenarios", "--validate-all", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "seed must be >= 0" in captured.err
        assert main(["run", "--scenario", str(bad), "--smoke"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1
        assert "seed" in err and "Traceback" not in err

    def test_validate_all_fails_on_a_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: 1\nname: bad\n")
        code = main(["scenarios", "--validate-all", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVALID" in captured.err

    def test_show_one_scenario_with_resolved_counts(self, capsys):
        code = main(["scenarios", "flash-crowd"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clients per period" in out
        assert "class3" in out
        assert "30" in out  # the spike is visible

    def test_show_unknown_scenario_errors(self, capsys):
        code = main(["scenarios", "atlantis"])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err


class TestSweepScenario:
    def test_sweep_over_a_scenario(self, capsys):
        code = main([
            "sweep", "optimizer.noise_sigma", "--values", "0.1", "0.3",
            "--scenario", "flash-crowd", "--smoke", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "over scenario 'flash-crowd'" in out
        assert "optimizer.noise_sigma" in out
        assert "class3" in out

    def test_sweep_smoke_without_scenario_rejected(self, capsys):
        code = main([
            "sweep", "optimizer.noise_sigma", "--values", "0.1", "--smoke",
        ])
        assert code == 2
        assert "--smoke requires --scenario" in capsys.readouterr().err


class TestMalformedScenarioFiles:
    @pytest.mark.parametrize("line", ["seed: seven", "seed: 7.9"])
    def test_validate_all_lists_a_malformed_file_as_invalid(self, tmp_path, capsys, line):
        from repro.scenarios import find_scenario, scenario_to_yaml

        text = scenario_to_yaml(find_scenario("flash-crowd"))
        assert "seed: 7\n" in text
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("seed: 7\n", line + "\n"))
        code = main(["scenarios", "--validate-all", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVALID {}".format(bad) in captured.err
        assert "seed must be an integer" in captured.err
        assert "Traceback" not in captured.err
        assert "of 8 scenarios valid" in captured.out

        code = main(["run", "--scenario", str(bad)])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("path", [
        "system_cost_limit",
        "monitor.snapshot_interval",
        "planner.grid_timerons",
        "planner.importance_base",
        "planner.surplus_slope",
        "planner.oltp_slope_prior",
    ])
    def test_validate_all_lists_a_nan_override_as_invalid(self, tmp_path, capsys, path):
        from repro.scenarios import find_scenario, scenario_to_yaml

        text = scenario_to_yaml(find_scenario("paper-figure3"))
        assert "control:" not in text
        bad = tmp_path / "nan.yaml"
        bad.write_text(text + "control:\n  {}: .nan\n".format(path))
        code = main(["scenarios", "--validate-all", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVALID {}".format(bad) in captured.err
        assert "control override {!r}".format(path) in captured.err
        assert "Traceback" not in captured.err
        assert "7 of 8 scenarios valid" in captured.out
