"""CLI surface of the scenario subsystem: run/scenarios/sweep."""

import pytest

from repro.cli import main
from repro.scenarios.loader import LIBRARY_DIR
from tests.conftest import CHECKOUT

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
        # The benchmark's own scenario file is read, never changed.
        fleet = CHECKOUT / "perf" / "scenarios" / "fleet-lockstep.yaml"
        for extra, valid in (([], "7 of 7"), ([str(fleet)], "8 of 8")):
            code = main(["scenarios", "--validate-all"] + extra)
            out = capsys.readouterr().out
            assert code == 0
            assert "{} scenarios valid".format(valid) in out

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


#: An integer no float can hold (``float(HUGE)`` raises ``OverflowError``).
HUGE = "1" + "0" * 400
TOO_LARGE = "-bit integer is too large for a float"


class TestMalformedScenarioFiles:
    @pytest.mark.parametrize("line, message", [
        pytest.param("seed: seven", "seed must be an integer", id="seed: seven"),
        pytest.param("seed: 7.9", "seed must be an integer", id="seed: 7.9"),
        pytest.param("  period_seconds: " + HUGE, "schedule.period_seconds: a 1329" + TOO_LARGE,
                     id="huge-period-seconds"),
        pytest.param("  num_periods: " + HUGE, "schedule.num_periods: a 1329" + TOO_LARGE,
                     id="huge-num-periods"),
        pytest.param("  importance: " + HUGE, "classes[0].importance: a 1329" + TOO_LARGE,
                     id="huge-importance"),
        pytest.param("    velocity: " + HUGE, "classes[0].goal.velocity: a 1329" + TOO_LARGE,
                     id="huge-goal-target"),
        pytest.param("    value: " + HUGE, "classes[0].clients.value: a 1329" + TOO_LARGE,
                     id="huge-generator-value"),
        pytest.param("    base: " + HUGE, "classes[2].clients.base: a 1329" + TOO_LARGE,
                     id="huge-generator-base"),
        pytest.param("faults: [{kind: cancel_storm, at: " + HUGE + "}]",
                     "faults[0].at: a 1329" + TOO_LARGE, id="huge-fault-at"),
    ])
    def test_validate_all_lists_a_malformed_file_as_invalid(
        self, tmp_path, capsys, line, message
    ):
        from repro.scenarios import find_scenario, scenario_to_yaml

        # ``line`` replaces the first line with the same key, or is appended.
        lines = scenario_to_yaml(find_scenario("flash-crowd")).splitlines()
        assert "seed: 7" in lines
        key = line.split(":")[0] + ":"
        same_key = [i for i, text in enumerate(lines) if text.startswith(key)]
        if same_key:
            lines[same_key[0]] = line
        else:
            lines.append(line)
        bad = tmp_path / "bad.yaml"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["scenarios", "--validate-all", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVALID {}".format(bad) in captured.err
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert "of 8 scenarios valid" in captured.out

        code = main(["run", "--scenario", str(bad)])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, ".nan", id=path) for path in (
            "system_cost_limit",
            "monitor.snapshot_interval",
            "planner.grid_timerons",
            "planner.importance_base",
            "planner.surplus_slope",
            "planner.oltp_slope_prior",
        )
    ] + [
        # These reach float arithmetic only mid-run (scale.think_time: when
        # compiled for a run), so the load-time check is what refuses them.
        pytest.param(path, HUGE, id=path + "-huge") for path in (
            "system_cost_limit",
            "planner.grid_timerons",
            "planner.importance_base",
            "planner.surplus_slope",
            "overload.knee_cost",
            "overload.beta",
            "optimizer.noise_sigma",
            "scale.think_time",
        )
    ])
    def test_validate_all_lists_a_nan_override_as_invalid(
        self, tmp_path, capsys, path, value
    ):
        from repro.scenarios import find_scenario, scenario_to_yaml

        text = scenario_to_yaml(find_scenario("paper-figure3"))
        assert "control:" not in text
        bad = tmp_path / "nan.yaml"
        bad.write_text(text + "control:\n  {}: {}\n".format(path, value))
        code = main(["scenarios", "--validate-all", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVALID {}".format(bad) in captured.err
        assert "control override {!r}".format(path) in captured.err
        assert "Traceback" not in captured.err
        assert "7 of 8 scenarios valid" in captured.out


class TestBackendOptions:
    CASES = {
        "zero-districts": ("sqlite", {"districts": 0, "workers": 2, "lineitem_rows": 50},
                           "backend_options.districts must be an integer >= 1"),
        "zero-stock-rows": ("sqlite", {"stock_rows": 0},
                            "backend_options.stock_rows must be an integer >= 1"),
        "nan-rate": ("sqlite", {"statements_per_demand_second": ".nan"},
                     "backend_options.statements_per_demand_second must be a finite"),
        "negative-districts": ("sqlite", {"districts": -3},
                               "backend_options.districts must be an integer >= 1"),
        "sim-takes-none": ("sim", {"worker": 2},
                           "backend_options.worker: unknown option for the 'sim' "
                           "backend (allowed: none)"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_backend_options_are_invalid_and_fail_cleanly(self, tmp_path, capsys, case):
        from repro.scenarios import find_scenario, scenario_to_yaml

        backend, options, message = self.CASES[case]
        text = scenario_to_yaml(find_scenario("flash-crowd"))
        assert "backend" not in text
        lines = ["backend: {}".format(backend), "backend_options:"]
        lines += ["  {}: {}".format(key, value) for key, value in options.items()]
        bad = tmp_path / "options.yaml"
        bad.write_text(text + "\n".join(lines) + "\n")

        code = main(["scenarios", "--validate-all", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVALID {}".format(bad) in captured.err
        assert message in captured.err
        assert "Traceback" not in captured.err

        assert main(["run", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1
        assert message in err
