"""Model ablation: paper-analytic vs learned vs oracle, on real scenarios.

The prediction layer is a seam (:mod:`repro.core.modeling`), so the
natural question is measurable: *how much does the model matter?*  This
experiment replays scenarios from the YAML library once per model spec
and compares

* **SLO attainment** — per-class fraction of periods meeting the goal
  (the controller-quality view: a better model should steer better);
* **per-interval prediction error** — the telemetry layer's one-step
  mean absolute error between what the model promised under the plan it
  chose and what the next interval measured (the model-quality view);
* **invariant violations** — whether the run stayed consistent.

The ``learned`` entry is trained the honest way: the scenario first runs
under the paper model, its exported telemetry trace becomes the training
set (``fit_from_records`` — the same replay path as ``repro train``),
and the trained weights then drive a fresh live run via
``learned:<path>``.  ``oracle`` is the last-value persistence baseline:
any model worth its parameters must beat it on shifting workloads.

``repro ablate-models`` is the CLI wrapper.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, Optional, Sequence

from repro.core.modeling import fit_from_records, save_model
from repro.errors import ExperimentError
from repro.metrics.report import Column, Table

#: Scenarios the ablation replays by default: the paper's own workload
#: plus the two workload-shift stressors (continuous drift and a spike).
DEFAULT_SCENARIOS = ("paper-figure3", "diurnal", "flash-crowd")

#: Model specs compared by default (order is presentation order).
DEFAULT_MODELS = ("paper", "learned", "oracle")


def _mean(values: Sequence[float]) -> Optional[float]:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _summarise(result, store) -> Dict:
    """Attainment + prediction-error + violation summary of one run."""
    attainment = result.goal_attainment()
    summary: Dict = {
        "attainment": {name: round(v, 4) for name, v in attainment.items()},
        "attainment_mean": _mean(list(attainment.values())),
        "intervals": len(store) if store is not None else None,
    }
    if store is not None:
        errors = store.prediction_error_summary()
        summary["prediction_mae"] = {
            name: s.mean_abs_error for name, s in sorted(errors.items())
        }
        summary["prediction_mae_mean"] = _mean(
            [s.mean_abs_error for s in errors.values()]
        )
        summary["violations"] = len(store.violations())
    else:
        summary["prediction_mae"] = {}
        summary["prediction_mae_mean"] = None
        summary["violations"] = None
    return summary


def _run_with_model(scenario, model_spec, smoke, seed, invariants):
    from repro.experiments.runner import run_spec
    from repro.experiments.sensitivity import set_config_field
    from repro.scenarios import to_experiment_spec

    spec = to_experiment_spec(
        scenario, smoke=smoke, invariants=invariants, seed=seed
    )
    spec = spec.with_overrides(
        config=set_config_field(spec.config, "planner.model", model_spec)
    )
    return run_spec(spec)


def run_model_ablation(
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    models: Sequence[str] = DEFAULT_MODELS,
    smoke: bool = True,
    seed: Optional[int] = None,
    invariants: Optional[str] = "warn",
) -> Dict:
    """Replay each scenario once per model; return the comparison report.

    ``invariants`` defaults to ``"warn"`` so a model that destabilises a
    run shows up as a violation *count* in the table instead of aborting
    the whole ablation; pass ``"strict"`` to make any violation fatal.
    """
    from repro.scenarios import find_scenario

    report: Dict = {"smoke": smoke, "models": list(models), "scenarios": {}}
    for scenario_name in scenarios:
        scenario = find_scenario(scenario_name)
        if scenario.controller not in ("qs", "qs_detect"):
            raise ExperimentError(
                "model ablation needs a Query Scheduler scenario; {!r} uses "
                "controller {!r}".format(scenario.name, scenario.controller)
            )
        entry: Dict[str, Dict] = {}
        # The paper run doubles as the learned model's training trace.
        paper_result = _run_with_model(scenario, "paper", smoke, seed, invariants)
        paper_store = paper_result.extras.get("telemetry")
        if paper_store is None:
            raise ExperimentError(
                "scenario {!r} produced no telemetry store".format(scenario.name)
            )
        records = [record.to_dict() for record in paper_store]
        if "paper" in models:
            entry["paper"] = _summarise(paper_result, paper_store)
        workdir = tempfile.mkdtemp(prefix="repro-ablation-")
        try:
            for model_spec in models:
                if model_spec == "paper":
                    continue
                run_spec_string = model_spec
                if model_spec == "learned":
                    trained = fit_from_records(records)
                    path = os.path.join(
                        workdir, "{}-learned.json".format(scenario.name)
                    )
                    save_model(trained, path)
                    run_spec_string = "learned:" + path
                result = _run_with_model(
                    scenario, run_spec_string, smoke, seed, invariants
                )
                entry[model_spec] = _summarise(
                    result, result.extras.get("telemetry")
                )
                if model_spec == "learned":
                    entry[model_spec]["trained_observations"] = trained.observations
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report["scenarios"][scenario.name] = entry
    return report


def ablation_table(report: Dict) -> Table:
    """One row per scenario and model of a :func:`run_model_ablation` report."""
    columns = [Column("scenario"), Column("model"), Column("attain", "{:.4f}"),
               Column("pred-MAE", "{:.4f}"), Column("violations")]
    rows = [
        [
            scenario_name,
            model_spec,
            entry[model_spec].get("attainment_mean"),
            entry[model_spec].get("prediction_mae_mean"),
            entry[model_spec].get("violations"),
        ]
        for scenario_name, entry in sorted(report.get("scenarios", {}).items())
        for model_spec in report.get("models", sorted(entry))
        if entry.get(model_spec) is not None
    ]
    mode = "smoke" if report.get("smoke") else "full"
    return Table(columns, rows, "Model ablation ({} mode)".format(mode))
