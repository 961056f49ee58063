"""Command-line interface.

Subcommands::

    python -m repro run        # run a controller on the paper workload
    python -m repro run --scenario flash-crowd   # ... or on a named scenario
    python -m repro run --dashboard              # ... streaming a live dashboard
    python -m repro serve      # run + live dashboard, held open until Ctrl-C
    python -m repro scenarios  # list / validate the YAML scenario library
    python -m repro calibrate  # throughput-vs-system-cost-limit sweep
    python -m repro figure     # regenerate one of the paper's figures
    python -m repro trace      # run the Query Scheduler, dump telemetry JSONL
    python -m repro check      # run with the invariant harness in strict mode
    python -m repro replicate  # multi-seed controller comparison (--jobs N)
    python -m repro sweep      # config-field sensitivity sweep (--jobs N)

Every command prints the same ASCII tables the ``benchmarks/`` suite uses, so
the CLI is the quickest way to poke at the system without writing code.
``replicate`` and ``sweep`` fan their runs over worker processes with
``--jobs`` (0 = one per CPU); results are identical at any worker count.
``--dashboard`` (or ``serve``) attaches the stdlib-only live telemetry
hub and serves it over HTTP: ``/`` (the embedded dashboard), ``/events``
(SSE), ``/api/snapshot`` and ``/metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro import errors
from repro.config import (
    MonitorConfig,
    PlannerConfig,
    WorkloadScaleConfig,
    default_config,
)
from repro.experiments.calibration import pick_knee_limit, sweep_system_cost_limit
from repro.experiments.figures import figure2, figure3
from repro.core.controllers import CONTROLLER_NAMES, PLANNER_CONTROLLER_NAMES
from repro.experiments.runner import ExperimentSpec, run_spec
from repro.metrics.export import check_export_target, open_export, save_result
from repro.metrics.report import (
    Column,
    Table,
    calibration_table,
    fault_table,
    invariant_table,
    period_table,
    plan_table,
    render_series_chart,
    run_tables,
    series_table,
    span_tables,
    telemetry_tables,
)
from repro.runtime import BACKEND_NAMES

#: What ``main`` does with an error a subcommand lets through: the stderr
#: prefix and the exit code (2 = the request was wrong, 1 = the run failed).
#: ``ReproError``s not listed are bugs and keep their traceback.
_ERROR_EXITS = (
    (errors.ScenarioError, "scenario error", 2),
    (errors.ConfigurationError, "configuration error", 2),
    (errors.ExportError, "export error", 2),
    (errors.MetricsError, "metrics error", 2),
    (errors.InvariantViolation, "invariant violation", 1),
    (errors.ExperimentError, "experiment error", 1),
)


def _print_tables(tables) -> None:
    """Each section's terminal rendering, after a blank line."""
    for table in tables:
        print()
        print(table.text())


def _sweep_value(text: str):
    """Parse one ``sweep --values`` token: int, then float, then string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _build_config(args: argparse.Namespace):
    """The configuration the scale options describe.

    Only ``run``/``serve`` leave those options unset (``None``): their
    defaults depend on the backend — the sim runs minutes of virtual time
    for free, the sqlite backend burns real wall-clock.
    """
    sim = (vars(args).get("backend") or "sim") == "sim"
    defaults = (9, 120.0, 60.0) if sim else (3, 2.0, 1.0)
    given = (args.periods, args.period_seconds, args.control_interval)
    periods, period_seconds, control_interval = (
        value if value is not None else default
        for value, default in zip(given, defaults)
    )
    return default_config(
        seed=args.seed if args.seed is not None else 7,
        scale=WorkloadScaleConfig(
            period_seconds=period_seconds, num_periods=periods
        ),
        monitor=MonitorConfig(
            snapshot_interval=min(10.0, max(0.05, control_interval / 2.0)),
            response_time_window=max(control_interval / 2.0, 10.0),
        ),
        planner=PlannerConfig(
            control_interval=control_interval,
            model=vars(args).get("model") or "paper",
        ),
    )


def _spec_from_args(
    args: argparse.Namespace,
    base: Optional[ExperimentSpec] = None,
    **fields,
) -> ExperimentSpec:
    """The one args -> ``ExperimentSpec`` mapping every run-like subcommand uses.

    Without ``base`` the spec is the paper workload at the scale options'
    size.  ``base`` is a compiled scenario spec, which owns everything the
    explicit ``--backend``/``--horizon``/``--model`` flags do not override.
    ``fields`` are what the subcommand itself fixes (``spans`` always
    traces, ``check`` takes its mode from ``--mode``).
    """
    option = vars(args).get
    if base is None:
        base = ExperimentSpec(
            controller=option("controller", "qs"),
            config=_build_config(args),
            invariants=option("invariants") or "off",
        )
    elif option("model"):
        from repro.experiments.sensitivity import set_config_field

        fields["config"] = set_config_field(
            base.config, "planner.model", args.model
        )
    for name in ("backend", "horizon"):
        if option(name) is not None:
            fields[name] = option(name)
    return base.with_overrides(**fields)


def _start_live(args: argparse.Namespace):
    """Start the telemetry hub + dashboard server when asked for.

    Returns the hub (``None`` without ``--dashboard``) and leaves the
    server on ``args.live_server``, where ``main`` stops it however the
    command ends.  ``--port 0`` (the default) binds an ephemeral port;
    ``--port-file`` writes the bound port for harnesses that need to find
    the server.
    """
    if not getattr(args, "dashboard", False):
        return None
    from repro.obs.live import LiveServer, TelemetryHub

    hub = TelemetryHub()
    server = args.live_server = LiveServer(hub, host=args.host, port=args.port).start()
    print("dashboard: {}".format(server.url), file=sys.stderr)
    if args.port_file:
        with open(args.port_file, "w") as handle:
            handle.write("{}\n".format(server.port))
    return hub


def _linger_live(args: argparse.Namespace) -> None:
    """Hold the dashboard open after a finished run (``--linger``)."""
    if args.live_server is None or args.linger == 0:
        return
    if args.linger < 0:
        print("run finished; serving until Ctrl-C", file=sys.stderr)
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
    else:
        time.sleep(args.linger)


def _cmd_run_sharded(args: argparse.Namespace, scenario) -> int:
    """The ``run --shards`` path: fleet run, merged cross-shard report."""
    from repro.shard import (
        ShardedExperimentSpec,
        run_sharded,
        save_sharded_report,
        sharded_tables,
    )

    if args.trace_events:
        print(
            "--trace-events is not supported with sharded runs (each shard "
            "would need its own trace file)",
            file=sys.stderr,
        )
        return 2
    if scenario is not None:
        from repro.scenarios import to_sharded_experiment_spec

        spec = to_sharded_experiment_spec(
            scenario,
            smoke=args.smoke,
            invariants=args.invariants,
            seed=args.seed,
            shards=args.shards,
            router=args.router,
            rebalance=args.rebalance,
        )
        spec = spec.with_overrides(
            base=_spec_from_args(args, base=spec.base)
        ).validate()
        source = "scenario {}".format(scenario.name)
    else:
        spec = ShardedExperimentSpec(
            base=_spec_from_args(args),
            shards=args.shards,
            router=args.router or "hash",
            rebalance=args.rebalance or "static",
        ).validate()
        source = "paper workload"
    print(
        "sharded run: {} ({} shards, router={}, rebalance={}, "
        "controller={}, invariants={})".format(
            source,
            spec.shards,
            spec.router,
            spec.rebalance,
            spec.base.controller,
            spec.base.invariants,
        )
    )
    result = run_sharded(spec, jobs=_jobs_arg(args), hub=_start_live(args))
    _print_tables(sharded_tables(result.report))
    if args.output:
        save_sharded_report(result.report, args.output, overwrite=True)
        print("wrote {}".format(args.output))
    _linger_live(args)
    return 0 if result.ok else 1


def _check_model_arg(args: argparse.Namespace) -> Optional[str]:
    """Early validation of ``--model``; returns an error string or None."""
    spec = getattr(args, "model", None)
    if not spec:
        return None
    from repro.core.modeling import parse_model_spec

    try:
        _, argument = parse_model_spec(spec)
    except errors.ConfigurationError as exc:
        return str(exc)
    if argument is not None and not os.path.exists(argument):
        return "trained model file {!r} not found".format(argument)
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    model_error = _check_model_arg(args)
    if model_error:
        print("model error: {}".format(model_error), file=sys.stderr)
        return 2
    if args.smoke and not args.scenario:
        print("--smoke only applies to --scenario runs", file=sys.stderr)
        return 2
    if (args.router or args.rebalance) and args.shards is None:
        print(
            "--router/--rebalance only apply to sharded runs (pass --shards N)",
            file=sys.stderr,
        )
        return 2
    scenario = None
    if args.scenario:
        from repro.scenarios import find_scenario

        scenario = find_scenario(args.scenario)
    # A scenario with a multi-shard ``shards:`` block takes the sharded
    # path by itself; --shards 1 forces the unsharded path.
    shards = args.shards
    if shards is None and scenario is not None and scenario.shards is not None:
        shards = scenario.shards.count
    if shards is not None and shards > 1:
        return _cmd_run_sharded(args, scenario)
    tracing = bool(args.trace_events)
    if scenario is None:
        spec = _spec_from_args(args, tracing=tracing)
    else:
        conflicting = [
            flag
            for flag, value in (
                ("--periods", args.periods),
                ("--period-seconds", args.period_seconds),
                ("--control-interval", args.control_interval),
            )
            if value is not None
        ]
        if conflicting:
            print(
                "{} conflict with --scenario (the scenario owns the "
                "schedule; use 'control:' overrides in the file)".format(
                    ", ".join(conflicting)
                ),
                file=sys.stderr,
            )
            return 2
        from repro.scenarios import to_experiment_spec

        spec = _spec_from_args(
            args,
            base=to_experiment_spec(
                scenario,
                smoke=args.smoke,
                invariants=args.invariants,
                seed=args.seed,
            ),
            tracing=tracing,
        )
        print(
            "scenario {} (controller={}, backend={}, {} periods x {:g}s, "
            "invariants={}{})".format(
                scenario.name,
                spec.controller,
                spec.backend,
                spec.schedule.num_periods,
                spec.schedule.period_seconds,
                spec.invariants,
                ", smoke" if args.smoke else "",
            )
        )
        if scenario.description:
            print(scenario.description.strip())
    result = run_spec(spec, hub=_start_live(args))
    if args.output:
        save_result(result, args.output)
        print("wrote {}".format(args.output))
    if args.trace_events:
        from repro.obs import save_chrome_trace

        tracer = result.extras["tracer"]
        save_chrome_trace(tracer.spans, args.trace_events, overwrite=True)
        print(
            "wrote {} ({} spans, balanced={})".format(
                args.trace_events, len(tracer.spans), tracer.balanced
            )
        )
    print(result.bundle.controller.describe())
    _print_tables(run_tables(result))
    _linger_live(args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: a run with the dashboard on, held open afterwards."""
    args.dashboard = True
    if args.linger == 0:
        args.linger = -1.0  # serve until Ctrl-C unless told otherwise
    return _cmd_run(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    result = run_spec(_spec_from_args(args))
    store = result.extras["telemetry"]  # --controller only offers planner-based ones
    if args.output:
        store.save_jsonl(args.output, overwrite=True)
        print("wrote {} ({} control intervals)".format(args.output, len(store)))
    else:
        sys.stdout.write(store.to_jsonl())
    if args.summary:
        tables = telemetry_tables(store)
        harness = result.extras.get("validation")
        if harness is not None:
            tables.append(invariant_table(harness))
        _print_tables(tables)
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro.obs import (
        save_chrome_trace,
        save_spans_jsonl,
        load_spans,
        validate_spans,
    )

    if args.input is not None:
        spans = load_spans(args.input)
        print("loaded {} spans from {}".format(len(spans), args.input))
    else:
        result = run_spec(_spec_from_args(args, tracing=True))
        tracer = result.extras["tracer"]
        tracer.assert_balanced()
        spans = tracer.spans
        print(
            "traced {} spans across {} queries (balanced)".format(
                len(spans), len({s.query_id for s in spans})
            )
        )
    problems = validate_spans(spans)
    if problems:
        for problem in problems:
            print("problem: {}".format(problem), file=sys.stderr)
        return 1
    if args.output:
        save_spans_jsonl(spans, args.output, overwrite=True)
        print("wrote {}".format(args.output))
    if args.trace_events:
        save_chrome_trace(spans, args.trace_events, overwrite=True)
        print("wrote {}".format(args.trace_events))
    _print_tables(span_tables(spans, args.top))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        find_scenario,
        library_names,
        library_paths,
        load_scenario,
        validate_library,
    )

    if args.validate_all:
        failures = list(validate_library())
        for path in args.name or []:
            # Extra positional args with --validate-all: validate files too.
            try:
                load_scenario(path)
            except errors.ScenarioError as exc:
                failures.append((path, str(exc)))
        names = library_names() + list(args.name or [])
        for name, error in failures:
            print("INVALID {}: {}".format(name, error), file=sys.stderr)
        print(
            "{} of {} scenarios valid".format(
                len(names) - len(failures), len(names)
            )
        )
        return 1 if failures else 0
    if args.name:
        scenario = find_scenario(args.name[0])
        print("{} (format v{})".format(scenario.name, scenario.version))
        if scenario.description:
            print(scenario.description.strip())
        print(
            "controller={} backend={} invariants={} seed={} "
            "{} periods x {:g}s".format(
                scenario.controller, scenario.backend, scenario.invariants,
                scenario.seed, scenario.num_periods, scenario.period_seconds,
            )
        )
        if scenario.control:
            print("control overrides:")
            for path in sorted(scenario.control):
                print("  {} = {}".format(path, scenario.control[path]))
        tables = [
            Table(
                [Column("class"), Column("kind"), Column("goal", "{}={:g}"),
                 Column("importance", "{:g}")],
                [
                    [c.name, c.kind, (c.goal_metric, c.goal_value), c.importance]
                    for c in scenario.classes
                ],
            ),
            series_table(
                scenario.resolved_counts(), title="clients per period", digits=0
            ),
        ]
        if scenario.faults:
            seconds = scenario.period_seconds
            tables.append(fault_table(
                [
                    dict(fault.params, fault=fault.kind, time=fault.seconds(seconds))
                    for fault in scenario.faults
                ],
                title="faults",
            ))
        _print_tables(tables)
        return 0
    rows = []
    for name in library_names():
        try:
            scenario = find_scenario(name)
        except errors.ScenarioError as exc:
            rows.append([name, None, None, None, "INVALID: {}".format(exc)])
            continue
        rows.append([
            name,
            (scenario.num_periods, scenario.period_seconds),
            len(scenario.classes),
            len(scenario.faults),
            scenario.controller,
        ])
    columns = [Column("scenario"), Column("periods", "{} x {:g}s"),
               Column("classes"), Column("faults"), Column("controller")]
    title = "{} library scenarios (repro run --scenario <name>)".format(
        len(library_paths())
    )
    print(Table(columns, rows, title).text())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.experiments.runner import build_bundle, make_controller
    from repro.validation import ControlLoopWorld, core_invariants

    if args.list:
        bundle = build_bundle(config=_build_config(args))
        make_controller(bundle, args.controller)
        registry = core_invariants(ControlLoopWorld.from_bundle(bundle))
        print(Table(
            [Column(name) for name in ("invariant", "severity", "message")],
            [[i.name, i.severity.name, i.message] for i in registry],
        ).text())
        return 0
    spec = _spec_from_args(args, invariants=args.mode)
    result = run_spec(spec)
    harness = result.extras["validation"]
    if not harness.checks_run:
        # A clean table over zero checks would claim a success nothing earned.
        horizon = spec.horizon
        if horizon is None:
            horizon = result.bundle.schedule.horizon
        raise errors.ConfigurationError(
            "no invariant check ran: the {:g} s control interval never came "
            "up within the {:g} s horizon; pass a shorter --control-interval".format(
                spec.config.planner.control_interval, horizon
            )
        )
    print(invariant_table(harness).text())
    return 1 if harness.violations else 0


def _progress_printer(args: argparse.Namespace):
    """A run_requests progress hook printing one stderr line per run."""
    if args.quiet:
        return None

    def progress(outcome, done, total):
        status = "ok" if outcome.ok else "FAILED"
        print(
            "[{}/{}] {} {}".format(done, total, outcome.request.describe(), status),
            file=sys.stderr,
        )

    return progress


def _jobs_arg(args: argparse.Namespace):
    """Map the CLI convention (0 = one worker per CPU) onto the API's None."""
    return None if args.jobs == 0 else args.jobs


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.experiments.replication import compare, comparison_table

    config = _build_config(args)
    summaries = compare(
        args.controllers,
        seeds=args.seeds,
        config=config,
        jobs=_jobs_arg(args),
        progress=_progress_printer(args),
    )
    class_names = sorted(
        {name for summary in summaries.values() for name in summary.per_class}
    )
    print(comparison_table(summaries, class_names).text())
    failures = sum(len(summary.errors) for summary in summaries.values())
    if failures:
        print(
            "{} of {} runs failed".format(
                failures, len(args.controllers) * len(args.seeds)
            ),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import sweep, sweep_table

    if args.smoke and not args.scenario:
        print("--smoke requires --scenario", file=sys.stderr)
        return 2
    if args.scenario:
        from repro.scenarios import find_scenario, to_experiment_spec

        scenario = find_scenario(args.scenario)
        base = dict(base_spec=to_experiment_spec(scenario, smoke=args.smoke))
        print("sweeping {} over scenario '{}'".format(args.path, scenario.name))
    else:
        base = dict(controller=args.controller, config=_build_config(args))
    entries = sweep(
        args.path,
        args.values,
        jobs=_jobs_arg(args),
        progress=_progress_printer(args),
        **base,
    )
    class_names = sorted({name for _, attainment in entries for name in attainment})
    print(sweep_table(args.path, entries, class_names).text())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = default_config(seed=args.seed)
    curve = sweep_system_cost_limit(
        args.limits,
        config=config,
        olap_clients=args.clients,
        period_seconds=args.period_seconds,
        num_periods=3,
        warmup_periods=1,
    )
    print(calibration_table(curve).text())
    knee = pick_knee_limit(curve, tolerance=0.05)
    print("suggested system cost limit (knee): {:.0f}".format(knee))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    number = args.number
    if number == 2:
        data = figure2(
            config=default_config(seed=args.seed),
            period_seconds=args.period_seconds,
            num_periods=3,
            warmup_periods=1,
        )
        columns = [Column("limit (tim)", "{:.0f}"), Column("oltp rt(s)", "{:.3f}")]
        for pair, series in data.items():
            title = "clients (oltp, olap) = {}".format(pair)
            print(Table(columns, series, title).text())
        return 0
    if number == 3:
        counts = figure3(args.period_seconds)
        print(series_table(
            counts, title="Figure 3: clients per period", digits=0
        ).text())
        return 0
    if number in (4, 5, 6, 7):
        controller = {4: "none", 5: "qp", 6: "qs", 7: "qs"}[number]
        result = run_spec(_spec_from_args(args, controller=controller))
        print(period_table(
            result.collector, result.classes,
            title="Figure {}: controller={}".format(number, controller),
        ).text())
        print()
        print(render_series_chart(
            {c.name: result.collector.performance_series(c) for c in result.classes},
            goal_lines={c.name: c.goal.target for c in result.classes},
            title="goal metrics per period (velocity / seconds)",
        ))
        if number == 7:
            print()
            print(plan_table(
                result.collector,
                [c.name for c in result.classes],
                title="Figure 7: class cost limits (period means)",
            ).text())
        return 0
    print("unknown figure {}; expected 2-7".format(number), file=sys.stderr)
    return 2


def _cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: fit a learned model from exported telemetry."""
    from repro.core.modeling import (
        LearnedPerformanceModel,
        PaperAnalyticModel,
        evaluate_on_records,
        fit_from_records,
        load_telemetry_records,
        save_model,
    )

    records = load_telemetry_records(args.telemetry)
    model = LearnedPerformanceModel(
        prior_slope=args.prior_slope,
        ridge=args.ridge,
        forgetting=args.forgetting,
    )
    fit_from_records(records, model=model)
    save_model(model, args.output, overwrite=True)
    print(
        "trained on {} telemetry records ({} observations) -> {}".format(
            len(records), model.observations, args.output
        )
    )
    if not args.no_eval:
        # Prequential one-step MAE on the same trace, trained vs analytic
        # (round-trip the trained weights so the scorer's online updates
        # cannot touch the saved model).
        trained = LearnedPerformanceModel.from_dict(model.to_dict())
        for label, scorer in (
            ("learned", trained),
            ("paper", PaperAnalyticModel()),
        ):
            rows = [
                [name, sum(e for _, e in series) / len(series) if series else 0.0,
                 len(series)]
                for name, series in sorted(evaluate_on_records(records, scorer).items())
            ]
            columns = [Column("class"), Column("MAE", "{:.5f}"), Column("intervals")]
            print(Table(columns, rows, "prequential MAE ({})".format(label)).text())
    return 0


def _cmd_ablate_models(args: argparse.Namespace) -> int:
    """``repro ablate-models``: scenario replay across model specs."""
    import json

    from repro.experiments.model_ablation import ablation_table, run_model_ablation

    report = run_model_ablation(
        scenarios=args.scenarios,
        models=args.models,
        smoke=not args.full,
        seed=args.seed,
        invariants=args.invariants,
    )
    print(ablation_table(report).text())
    if args.output:
        with open_export(args.output, overwrite=True) as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.output))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reportgen import quick_report_config, write_report

    config = quick_report_config().with_updates(seed=args.seed)
    text = write_report(args.output, config=config)
    print("wrote {} ({} lines)".format(args.output, text.count("\n") + 1))
    return 0


def _add_run_arguments(run_parser: argparse.ArgumentParser) -> None:
    """The full ``run`` option set (shared verbatim by ``serve``)."""
    run_parser.add_argument("--controller", choices=CONTROLLER_NAMES, default="qs")
    run_parser.add_argument(
        "--scenario", default=None, metavar="NAME|PATH",
        help="run a scenario: a library name (see 'repro scenarios') or a "
             "path to a scenario YAML file; the scenario then owns the "
             "controller, schedule, backend and invariant mode",
    )
    run_parser.add_argument(
        "--smoke", action="store_true",
        help="compress the scenario's periods to seconds of virtual time "
             "(same schedule shape; only valid with --scenario)",
    )
    run_parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend: the discrete-event simulator (default), "
             "or real SQL against in-process SQLite in wall-clock time",
    )
    run_parser.add_argument(
        "--horizon", type=float, default=None, metavar="SECONDS",
        help="stop the run at this time instead of the schedule horizon",
    )
    run_parser.add_argument("--periods", type=int, default=None)
    run_parser.add_argument("--period-seconds", type=float, default=None)
    run_parser.add_argument("--control-interval", type=float, default=None)
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed (default 7, or the scenario's own seed)",
    )
    run_parser.add_argument(
        "--output", default=None,
        help="write results to a .json or .csv file",
    )
    run_parser.add_argument(
        "--invariants", choices=("off", "warn", "strict"), default=None,
        help="runtime invariant checking at every control interval "
             "(default off, or the scenario's own mode)",
    )
    run_parser.add_argument(
        "--model", default=None, metavar="SPEC",
        help="performance model for the utility solver: 'paper' (the "
             "analytic Section 3.2 pair, default), 'learned' (online RLS "
             "residual model), 'learned:PATH' (weights from 'repro "
             "train'), or 'oracle' (last-value baseline)",
    )
    run_parser.add_argument(
        "--trace-events", default=None, metavar="PATH",
        help="trace query lifecycles, write Chrome trace-event JSON here",
    )
    run_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run N engine shards under the sharded control plane "
             "(default: the scenario's shards block, else unsharded)",
    )
    run_parser.add_argument(
        "--router", choices=("hash", "least-loaded", "cost-aware"),
        default=None,
        help="how client sessions spread across shards (default hash, or "
             "the scenario's own policy)",
    )
    run_parser.add_argument(
        "--rebalance", choices=("static", "interval"), default=None,
        help="cost-limit partitioning: once up front (static, parallel-"
             "safe) or re-split every control interval (interval, jobs=1)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for static-mode shards (0 = one per CPU)",
    )
    run_parser.add_argument(
        "--dashboard", action="store_true",
        help="serve the live telemetry dashboard while the run executes "
             "(stdlib HTTP + SSE: /, /events, /api/snapshot, /metrics)",
    )
    run_parser.add_argument(
        "--host", default="127.0.0.1",
        help="dashboard bind address (default 127.0.0.1)",
    )
    run_parser.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="dashboard port (default 0 = an ephemeral free port)",
    )
    run_parser.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the dashboard's bound port here once listening",
    )
    run_parser.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep serving the dashboard this long after the run finishes "
             "(negative = until Ctrl-C; 'serve' defaults to that)",
    )


def _scale_args(
    parser: argparse.ArgumentParser,
    periods: int = 9,
    period_seconds: float = 120.0,
    control_interval: float = 60.0,
) -> None:
    """The run-size options of a subcommand whose defaults are fixed."""
    parser.add_argument("--periods", type=int, default=periods)
    parser.add_argument("--period-seconds", type=float, default=period_seconds)
    parser.add_argument("--control-interval", type=float, default=control_interval)
    parser.add_argument("--seed", type=int, default=7)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Adapting Mixed Workloads to Meet SLOs "
                    "in Autonomic DBMSs' (ICDE 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run",
        help="run a controller on the paper workload or a YAML scenario",
    )
    _add_run_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    serve_parser = sub.add_parser(
        "serve",
        help="run an experiment with the live dashboard attached and hold "
             "the server open afterwards (Ctrl-C to exit); accepts every "
             "'run' option",
    )
    _add_run_arguments(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    spans_parser = sub.add_parser(
        "spans",
        help="per-query lifecycle span breakdown (fresh traced run, or a "
             "saved spans JSONL / trace-event JSON / directory)",
    )
    spans_parser.add_argument(
        "input", nargs="?", default=None,
        help="spans .jsonl, trace-event .json, or a directory holding one "
             "(default: run a fresh traced experiment)",
    )
    spans_parser.add_argument(
        "--controller", choices=PLANNER_CONTROLLER_NAMES, default="qs"
    )
    _scale_args(spans_parser)
    spans_parser.add_argument(
        "--top", type=int, default=5,
        help="how many slowest queue waits to list",
    )
    spans_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the spans as JSONL here",
    )
    spans_parser.add_argument(
        "--trace-events", default=None, metavar="PATH",
        help="also write Chrome trace-event JSON here",
    )
    spans_parser.set_defaults(func=_cmd_spans, usage_error="spans error")

    trace_parser = sub.add_parser(
        "trace", help="run a planner-based controller and export its telemetry"
    )
    trace_parser.add_argument(
        "--controller", choices=PLANNER_CONTROLLER_NAMES, default="qs"
    )
    _scale_args(trace_parser)
    trace_parser.add_argument(
        "--output", default=None,
        help="write telemetry JSONL here (default: stdout)",
    )
    trace_parser.add_argument(
        "--summary", action="store_true",
        help="also print prediction-error and accounting summaries",
    )
    trace_parser.add_argument(
        "--invariants", choices=("off", "warn", "strict"), default="warn",
        help="runtime invariant checking (violations ride in the JSONL)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    check_parser = sub.add_parser(
        "check",
        help="run a seeded simulation under the runtime invariant harness",
    )
    check_parser.add_argument(
        "--controller", choices=PLANNER_CONTROLLER_NAMES, default="qs"
    )
    _scale_args(check_parser, periods=3, period_seconds=60.0, control_interval=30.0)
    check_parser.add_argument(
        "--mode", choices=("warn", "strict"), default="strict",
        help="warn records violations; strict fails fast on the first",
    )
    check_parser.add_argument(
        "--list", action="store_true",
        help="print the registered invariants and exit without running",
    )
    check_parser.set_defaults(func=_cmd_check)

    scen_parser = sub.add_parser(
        "scenarios",
        help="list, inspect, or validate the named scenario library",
    )
    scen_parser.add_argument(
        "name", nargs="*",
        help="show one scenario in detail (library name or YAML path); "
             "with --validate-all, extra paths to validate as well",
    )
    scen_parser.add_argument(
        "--validate-all", action="store_true",
        help="schema-validate and round-trip every library scenario; "
             "exit nonzero if any fails",
    )
    scen_parser.set_defaults(func=_cmd_scenarios)

    def _experiment_scale_args(p: argparse.ArgumentParser) -> None:
        _scale_args(p)
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for the run fan-out (0 = one per CPU)",
        )
        p.add_argument(
            "--quiet", action="store_true",
            help="suppress per-run progress lines on stderr",
        )

    rep_parser = sub.add_parser(
        "replicate",
        help="compare controllers across seeds (paired multi-seed runs)",
    )
    rep_parser.add_argument(
        "--controllers", nargs="+", choices=CONTROLLER_NAMES,
        default=["none", "qp", "qs"],
    )
    rep_parser.add_argument(
        "--seeds", type=int, nargs="+", default=[7, 21, 42],
    )
    _experiment_scale_args(rep_parser)
    rep_parser.set_defaults(func=_cmd_replicate)

    sweep_parser = sub.add_parser(
        "sweep", help="re-run an experiment per value of a config field"
    )
    sweep_parser.add_argument(
        "path", help="dotted config path, e.g. planner.control_interval"
    )
    sweep_parser.add_argument(
        "--values", nargs="+", required=True, type=_sweep_value,
        help="values to sweep (numbers are auto-converted)",
    )
    sweep_parser.add_argument("--controller", choices=CONTROLLER_NAMES, default="qs")
    sweep_parser.add_argument(
        "--scenario", default=None, metavar="NAME|PATH",
        help="sweep over a scenario instead of the paper workload; the "
             "scenario supplies the controller, schedule, seed and faults "
             "(--controller/--periods/--period-seconds/--control-interval/"
             "--seed are ignored)",
    )
    sweep_parser.add_argument(
        "--smoke", action="store_true",
        help="compress the scenario's periods to seconds of virtual time "
             "(only valid with --scenario)",
    )
    _experiment_scale_args(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    cal_parser = sub.add_parser("calibrate", help="throughput vs system cost limit")
    cal_parser.add_argument(
        "--limits", type=float, nargs="+",
        default=[10_000, 20_000, 30_000, 40_000, 50_000],
    )
    cal_parser.add_argument("--clients", type=int, default=32)
    cal_parser.add_argument("--period-seconds", type=float, default=120.0)
    cal_parser.add_argument("--seed", type=int, default=7)
    cal_parser.set_defaults(func=_cmd_calibrate)

    fig_parser = sub.add_parser("figure", help="regenerate a paper figure (2-7)")
    fig_parser.add_argument("number", type=int)
    _scale_args(fig_parser)
    fig_parser.set_defaults(func=_cmd_figure)

    train_parser = sub.add_parser(
        "train",
        help="fit a learned performance model from exported telemetry "
             "JSONL (see 'repro trace'); load it with run --model learned:PATH",
    )
    train_parser.add_argument(
        "--telemetry", required=True, metavar="PATH",
        help="telemetry JSONL file, or a directory of .jsonl exports",
    )
    train_parser.add_argument(
        "--output", required=True, metavar="PATH",
        help="where to write the trained model JSON",
    )
    train_parser.add_argument(
        "--prior-slope", type=float, default=-4.2e-6,
        help="OLTP slope prior of the analytic base model (default %(default)s)",
    )
    train_parser.add_argument(
        "--ridge", type=float, default=4.0,
        help="ridge regularisation of the RLS correction (default %(default)s)",
    )
    train_parser.add_argument(
        "--forgetting", type=float, default=0.995,
        help="RLS forgetting factor in (0, 1] (default %(default)s)",
    )
    train_parser.add_argument(
        "--no-eval", action="store_true",
        help="skip the prequential MAE comparison against the paper model",
    )
    train_parser.set_defaults(func=_cmd_train, usage_error="train error")

    ablate_parser = sub.add_parser(
        "ablate-models",
        help="replay library scenarios once per performance model and "
             "compare SLO attainment and prediction error",
    )
    ablate_parser.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        default=["paper-figure3", "diurnal", "flash-crowd"],
        help="scenario names to replay (default: %(default)s)",
    )
    ablate_parser.add_argument(
        "--models", nargs="+", metavar="SPEC",
        default=["paper", "learned", "oracle"],
        help="model specs to compare (default: %(default)s); 'learned' is "
             "trained on each scenario's own paper-model trace first",
    )
    ablate_parser.add_argument(
        "--full", action="store_true",
        help="full-length scenario runs (default: smoke-compressed)",
    )
    ablate_parser.add_argument(
        "--seed", type=int, default=None,
        help="override each scenario's own seed",
    )
    ablate_parser.add_argument(
        "--invariants", choices=("off", "warn", "strict"), default="warn",
        help="invariant mode for the replays (default warn: violations "
             "are counted in the table instead of aborting)",
    )
    ablate_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the full comparison report as JSON",
    )
    ablate_parser.set_defaults(
        func=_cmd_ablate_models, usage_error="ablation error"
    )

    report_parser = sub.add_parser(
        "report", help="run the figure 4/5/6/7 comparison, write a Markdown report"
    )
    report_parser.add_argument("--output", default="experiment_report.md")
    report_parser.add_argument("--seed", type=int, default=7)
    report_parser.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one place a subcommand's :class:`~repro.errors.ReproError` becomes
    a one-line message and an exit code (``_ERROR_EXITS``), and the one
    place the dashboard server is stopped.  Export targets are checked
    here, before the subcommand assembles or simulates anything; a refused
    target stays an ``export error`` under a subcommand's ``usage_error``.
    """
    args = build_parser().parse_args(argv)
    args.live_server = None
    usage_error = None
    try:
        for option in ("output", "trace_events"):
            target = vars(args).get(option)
            if target:
                check_export_target(target, overwrite=True)
        usage_error = vars(args).get("usage_error")
        return args.func(args)
    except errors.ReproError as exc:
        for kind, prefix, code in _ERROR_EXITS:
            if isinstance(exc, kind):
                if code == 2 and usage_error is not None:
                    prefix = usage_error
                print("{}: {}".format(prefix, exc), file=sys.stderr)
                return code
        raise
    finally:
        if args.live_server is not None:
            args.live_server.stop()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
