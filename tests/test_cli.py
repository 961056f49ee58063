"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST_RUN = ["--periods", "2", "--period-seconds", "20",
            "--control-interval", "10"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command_prints_tables(capsys):
    code = main(["run", "--controller", "none"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Per-period goal metrics" in out
    assert "Attainment" in out
    assert "class3" in out


def test_run_qs_prints_plan_table(capsys):
    code = main(["run", "--controller", "qs"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Class cost limits" in out
    assert "Query Scheduler" in out


def test_run_rejects_unknown_controller():
    with pytest.raises(SystemExit):
        main(["run", "--controller", "chaos"])


def test_retired_bench_subcommand_is_an_invalid_choice():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2


def test_trace_command_stdout_jsonl(capsys):
    import json

    code = main(["trace"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines, "trace produced no JSONL records"
    for line in lines:
        record = json.loads(line)
        assert {"time", "interval_index", "trigger", "solver",
                "dispatcher"} <= set(record)


def test_trace_command_writes_file(tmp_path, capsys):
    import json

    path = str(tmp_path / "trace.jsonl")
    code = main(["trace", "--output", path, "--summary"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out
    assert "One-step prediction error" in out
    assert "Dispatcher balance" in out
    with open(path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    assert rows
    assert rows[0]["interval_index"] == 0


def test_trace_rejects_non_qs_controller():
    with pytest.raises(SystemExit):
        main(["trace", "--controller", "none"] + FAST_RUN)


def test_check_command_clean_run(capsys):
    code = main(["check"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Invariants" in out
    assert "no violations" in out
    assert "mode=strict" in out


def test_check_that_checked_nothing_is_an_error_not_a_success(capsys):
    # The 30 s default interval never comes up inside a 20 s horizon.
    code = main(["check", "--periods", "1", "--period-seconds", "20"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no violations" not in captured.out
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert "30 s control interval" in captured.err and "20 s horizon" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "-5", "--periods", "1", "--period-seconds", "10"],
        ["check", "--seed", "-1", "--periods", "1", "--period-seconds", "10"],
        ["trace", "--control-interval", "nan", "--periods", "1", "--period-seconds", "10"],
        ["trace", "--control-interval", "inf", "--periods", "1", "--period-seconds", "10"],
    ],
)
def test_a_bad_seed_or_control_interval_is_one_configuration_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert ("seed" if "--seed" in argv else "control_interval") in captured.err
    assert "(0 control intervals)" not in captured.out


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--horizon", "nan"], "horizon"),
        (["--horizon", "inf"], "horizon"),
        (["--horizon", "-5"], "horizon"),
        (["--period-seconds", "inf"], "period_seconds"),
    ],
)
def test_a_bad_horizon_or_period_length_is_one_configuration_error_line(
    flags, named, capsys, monkeypatch
):
    # Refused before anything runs: a run that reached the kernel with a
    # non-finite end would never return, so reaching it fails the test.
    from repro.sim.engine import Simulator

    def refuse(self, end_time):
        pytest.fail("the run started with end time {!r}".format(end_time))

    monkeypatch.setattr(Simulator, "run_until", refuse)
    argv = ["run", "--periods", "1", "--period-seconds", "10"] + flags
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert named in captured.err


def test_check_command_list(capsys):
    code = main(["check", "--list"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "dispatcher_in_flight_consistent" in out
    assert "velocity_in_unit_interval" in out
    assert "CRITICAL" in out


def test_run_with_invariants_prints_summary(capsys):
    code = main(["run", "--controller", "qs", "--invariants", "strict"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Invariants" in out
    assert "no violations" in out


def test_trace_embeds_violations_field(capsys):
    import json

    code = main(["trace", "--invariants", "warn"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    records = [json.loads(line) for line in lines if line.startswith("{")]
    assert records
    assert all("violations" in record for record in records)
    assert all(record["violations"] == [] for record in records)


def test_calibrate_command(capsys):
    code = main([
        "calibrate", "--limits", "10000", "30000",
        "--clients", "8", "--period-seconds", "30",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "queries/sec" in out
    assert "suggested system cost limit" in out


def test_figure3_command(capsys):
    code = main(["figure", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 3" in out
    assert out.count("\n") >= 20  # 18 period rows plus header


def test_figure4_command(capsys):
    code = main(["figure", "4"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "controller=none" in out


def test_figure_unknown_number(capsys):
    code = main(["figure", "12"] + FAST_RUN)
    assert code == 2
    assert "unknown figure" in capsys.readouterr().err


def test_seed_changes_results(capsys):
    main(["run", "--controller", "none", "--seed", "1"] + FAST_RUN)
    first = capsys.readouterr().out
    main(["run", "--controller", "none", "--seed", "1"] + FAST_RUN)
    second = capsys.readouterr().out
    assert first == second  # deterministic
    main(["run", "--controller", "none", "--seed", "2"] + FAST_RUN)
    third = capsys.readouterr().out
    assert third != first


def test_run_output_json(tmp_path, capsys):
    path = str(tmp_path / "out.json")
    code = main(["run", "--controller", "none", "--output", path] + FAST_RUN)
    assert code == 0
    import json
    with open(path) as handle:
        data = json.load(handle)
    assert data["controller"] == "none"
    assert "wrote" in capsys.readouterr().out


def test_run_output_csv(tmp_path, capsys):
    path = str(tmp_path / "out.csv")
    code = main(["run", "--controller", "none", "--output", path] + FAST_RUN)
    assert code == 0
    with open(path) as handle:
        assert handle.readline().startswith("period,")


def test_report_command(tmp_path, capsys, monkeypatch):
    """`repro report` writes a Markdown comparison (patched to a tiny
    config so the test stays fast)."""
    from repro.config import (
        MonitorConfig,
        PlannerConfig,
        WorkloadScaleConfig,
        default_config,
    )
    import repro.cli as cli_module
    import repro.experiments.reportgen as reportgen

    tiny = default_config(
        scale=WorkloadScaleConfig(period_seconds=20.0, num_periods=1),
        monitor=MonitorConfig(snapshot_interval=5.0, response_time_window=10.0),
        planner=PlannerConfig(control_interval=10.0),
    )
    monkeypatch.setattr(reportgen, "quick_report_config", lambda: tiny)
    path = str(tmp_path / "report.md")
    code = main(["report", "--output", path])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    with open(path) as handle:
        text = handle.read()
    assert "Generated experiment report" in text


def test_replicate_command_serial(capsys):
    code = main([
        "replicate", "--controllers", "none", "--seeds", "1", "2",
    ] + FAST_RUN)
    captured = capsys.readouterr()
    assert code == 0
    assert "controller" in captured.out
    assert "none" in captured.out
    # Progress lines land on stderr, one per run.
    assert "[1/2]" in captured.err
    assert "[2/2]" in captured.err


def test_replicate_command_parallel_matches_serial(capsys):
    serial_code = main([
        "replicate", "--controllers", "none", "--seeds", "1", "2", "--quiet",
    ] + FAST_RUN)
    serial_out = capsys.readouterr().out
    parallel_code = main([
        "replicate", "--controllers", "none", "--seeds", "1", "2",
        "--jobs", "2", "--quiet",
    ] + FAST_RUN)
    parallel_out = capsys.readouterr().out
    assert serial_code == parallel_code == 0
    assert serial_out == parallel_out


def test_replicate_rejects_unknown_controller():
    with pytest.raises(SystemExit):
        main(["replicate", "--controllers", "chaos"] + FAST_RUN)


def test_sweep_command(capsys):
    code = main([
        "sweep", "optimizer.noise_sigma", "--values", "0.0", "0.2",
        "--controller", "none", "--jobs", "2", "--quiet",
    ] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "optimizer.noise_sigma" in out
    assert "class3" in out


def test_sweep_rejects_unknown_field(capsys):
    code = main([
        "sweep", "planner.warp_speed", "--values", "1", "--quiet",
    ] + FAST_RUN)
    assert code == 2
    assert "warp_speed" in capsys.readouterr().err


def test_run_trace_events_writes_chrome_trace(tmp_path, capsys):
    import json

    path = str(tmp_path / "trace.json")
    code = main(["run", "--trace-events", path] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "balanced=True" in out
    with open(path) as handle:
        document = json.load(handle)
    events = document["traceEvents"]
    assert isinstance(events, list) and events
    assert any(event.get("ph") == "X" for event in events)


def test_spans_command_fresh_run(capsys):
    code = main(["spans"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "balanced" in out
    assert "Per-class phase breakdown" in out
    assert "queue_wait" in out
    assert "execute" in out
    assert "slowest queue waits" in out


def test_spans_command_from_saved_trace(tmp_path, capsys):
    path = str(tmp_path / "trace.json")
    main(["run", "--trace-events", path] + FAST_RUN)
    capsys.readouterr()
    code = main(["spans", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "loaded" in out
    assert "Per-class phase breakdown" in out


@pytest.mark.parametrize(
    "make_input, named",
    [
        (lambda tmp: str(tmp / "missing.jsonl"), "missing.jsonl"),
        (lambda tmp: _write(tmp / "spans.jsonl", '{"query_id": 1, "class":\n'), "line 1"),
        (lambda tmp: str(tmp), "no spans.jsonl or trace.json"),
    ],
    ids=["missing-file", "malformed-jsonl-line", "directory-without-export"],
)
def test_spans_command_bad_input_is_one_line_and_exit_2(tmp_path, capsys, make_input, named):
    path = make_input(tmp_path)
    assert main(["spans", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("spans error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert named in captured.err


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_spans_command_writes_jsonl(tmp_path, capsys):
    import json

    path = str(tmp_path / "spans.jsonl")
    code = main(["spans", "--output", path] + FAST_RUN)
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    with open(path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    assert rows
    assert {"query_id", "class", "phase", "begin", "end"} <= set(rows[0])


def test_trace_summary_prints_controller_overhead(capsys):
    code = main(["trace", "--summary"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "Controller overhead (wall-clock per control interval)" in out
    assert "total_s" in out
    assert "mean (s)" in out and "max (s)" in out


def test_run_sharded_smoke(capsys, tmp_path):
    import json

    path = str(tmp_path / "sharded.json")
    code = main(
        ["run", "--shards", "2", "--router", "least-loaded",
         "--invariants", "strict", "--jobs", "2", "--output", path] + FAST_RUN
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sharded run" in out
    assert "2 shards" in out
    assert "global invariants: ok" in out
    payload = json.loads(open(path).read())
    assert payload["shards"] == 2
    assert payload["ok"] is True


def test_run_shards_one_uses_unsharded_path(capsys):
    code = main(["run", "--shards", "1", "--controller", "qs"] + FAST_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "sharded run" not in out


def test_every_run_like_subcommand_derives_its_spec_from_one_helper():
    from repro.cli import _spec_from_args

    def spec_for(*argv, **fields):
        return _spec_from_args(build_parser().parse_args(list(argv)), **fields)

    # run / serve: scale defaults follow the backend, once, for the
    # sharded and the unsharded path alike.
    sim = spec_for("run")
    assert (sim.backend, sim.invariants, sim.horizon) == ("sim", "off", None)
    assert sim.config.seed == 7
    assert sim.config.scale.num_periods == 9
    assert sim.config.scale.period_seconds == 120.0
    assert sim.config.planner.control_interval == 60.0
    realtime = spec_for("run", "--backend", "sqlite", "--horizon", "4",
                        "--shards", "2", "--invariants", "strict")
    assert (realtime.backend, realtime.horizon) == ("sqlite", 4.0)
    assert realtime.invariants == "strict"
    assert realtime.config.scale.num_periods == 3
    assert realtime.config.scale.period_seconds == 2.0
    assert realtime.config.planner.control_interval == 1.0
    explicit = spec_for("run", "--backend", "sqlite", "--periods", "5",
                        "--model", "oracle", "--seed", "3")
    assert explicit.config.scale.num_periods == 5
    assert explicit.config.planner.model == "oracle"
    assert explicit.config.seed == 3
    # the other subcommands fix one field each on top of the same mapping
    assert spec_for("trace").invariants == "warn"
    assert spec_for("spans", tracing=True).tracing is True
    check = spec_for("check", "--controller", "qs_detect", invariants="strict")
    assert (check.controller, check.invariants) == ("qs_detect", "strict")
    assert check.config.scale.num_periods == 3
    assert spec_for("figure", "5", controller="qp").controller == "qp"


def test_scenario_flags_override_only_what_they_name():
    pytest.importorskip("yaml")
    from repro.cli import _spec_from_args
    from repro.scenarios import find_scenario, to_experiment_spec

    base = to_experiment_spec(find_scenario("cancel-storm-under-load"), smoke=True)
    untouched = _spec_from_args(
        build_parser().parse_args(["run", "--scenario", "cancel-storm-under-load"]),
        base=base,
    )
    assert untouched == base
    args = build_parser().parse_args(
        ["run", "--scenario", "cancel-storm-under-load", "--horizon", "9",
         "--model", "learned"]
    )
    changed = _spec_from_args(args, base=base, tracing=True)
    assert (changed.horizon, changed.tracing) == (9.0, True)
    assert changed.config.planner.model == "learned"
    assert changed.faults == base.faults and changed.schedule is base.schedule
    assert base.config.planner.model == "paper"


def test_run_router_without_shards_is_an_error(capsys):
    code = main(["run", "--router", "hash"] + FAST_RUN)
    err = capsys.readouterr().err
    assert code == 2
    assert "--shards" in err


def test_run_sharded_rejects_trace_events(capsys):
    code = main(
        ["run", "--shards", "2", "--trace-events", "x.jsonl"] + FAST_RUN
    )
    assert code == 2


def test_run_sharded_underprovisioned_limit_exits_2(capsys):
    # 16 shards x 3 classes x 1000-timeron floor exceeds the default
    # 30k global budget; must fail fast with a config error, not crash.
    code = main(["run", "--shards", "16"] + FAST_RUN)
    err = capsys.readouterr().err
    assert code == 2
    assert "cost limit" in err


def _raising(error):
    def run_spec(spec, hub=None):
        raise error

    return run_spec


@pytest.mark.parametrize(
    "argv, raised, code, prefix",
    [
        (["run", "--periods", "0"], None, 2, "configuration error: "),
        (["figure", "4", "--periods", "0"], None, 2, "configuration error: "),
        (["run", "--scenario", "atlantis"], None, 2, "scenario error: "),
        (["scenarios", "atlantis"], None, 2, "scenario error: "),
        (["run", "--output", "/no/such/dir/x.json"], None, 2, "export error: "),
        (["spans", "--trace-events", "/no/such/dir/t.json"], None, 2, "export error: "),
        (["trace", "--output", "/no/such/dir/t.jsonl"], None, 2, "export error: "),
        (["report", "--output", "/no/such/dir/r.md"], None, 2, "export error: "),
        (["train", "--telemetry", "/no/such/dir", "--output", "m.json"], None, 2,
         "train error: "),
        (["ablate-models", "--scenarios", "atlantis"], None, 2, "ablation error: "),
        (["run"], "MetricsError", 2, "metrics error: "),
        (["check"], "InvariantViolation", 1, "invariant violation: "),
        (["run"], "ExperimentError", 1, "experiment error: "),
    ],
)
def test_every_error_class_is_one_line_on_stderr_and_an_exit_code(
    argv, raised, code, prefix, monkeypatch, capsys
):
    import repro.cli as cli_module
    import repro.errors
    from repro.sim.engine import Simulator

    if raised is not None:
        error = getattr(repro.errors, raised)("injected")
        monkeypatch.setattr(cli_module, "run_spec", _raising(error))
    fired = []
    run_simulator = Simulator.run

    def counting_run(self, *args, **kwargs):
        fired.append(self)
        return run_simulator(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counting_run)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix)
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert fired == []  # refused before any simulation event fired


def test_an_unlisted_repro_error_is_a_bug_and_keeps_its_traceback(monkeypatch):
    import repro.cli as cli_module
    from repro.errors import SimulationError

    monkeypatch.setattr(
        cli_module, "run_spec", _raising(SimulationError("event in the past"))
    )
    with pytest.raises(SimulationError):
        main(["run"] + FAST_RUN)


def test_a_failed_run_still_stops_the_dashboard(monkeypatch, capsys):
    import repro.cli as cli_module
    from repro.errors import InvariantViolation
    from repro.obs.live import LiveServer

    stopped = []
    stop = LiveServer.stop

    def recording_stop(self):
        stopped.append(self)
        stop(self)

    monkeypatch.setattr(LiveServer, "stop", recording_stop)
    monkeypatch.setattr(cli_module, "run_spec", _raising(InvariantViolation("boom")))
    assert main(["run", "--dashboard"] + FAST_RUN) == 1
    assert "invariant violation: boom" in capsys.readouterr().err
    assert len(stopped) == 1 and not stopped[0].running
