"""Experiment harness: builds full simulations and reproduces the paper's
calibration sweep and Figures 2-7."""

from repro import lazy_exports

_EXPORTS = {
    "SimulationBundle": "repro.experiments.runner",
    "ExperimentResult": "repro.experiments.runner",
    "ExperimentSpec": "repro.experiments.runner",
    "build_bundle": "repro.experiments.runner",
    "make_controller": "repro.experiments.runner",
    "assemble_run": "repro.experiments.runner",
    "run_spec": "repro.experiments.runner",
    "finish_run": "repro.experiments.runner",
    "sweep_system_cost_limit": "repro.experiments.calibration",
    "fit_oltp_slope": "repro.experiments.calibration",
    "figure2": "repro.experiments.figures",
    "figure3": "repro.experiments.figures",
    "figure4": "repro.experiments.figures",
    "figure5": "repro.experiments.figures",
    "figure6": "repro.experiments.figures",
    "figure7": "repro.experiments.figures",
    "replicate": "repro.experiments.replication",
    "compare": "repro.experiments.replication",
    "comparison_table": "repro.experiments.replication",
    "ReplicationSummary": "repro.experiments.replication",
    "RunFailure": "repro.experiments.replication",
    "RunRequest": "repro.experiments.parallel",
    "RunSummary": "repro.experiments.parallel",
    "RunOutcome": "repro.experiments.parallel",
    "run_requests": "repro.experiments.parallel",
    "execute_request": "repro.experiments.parallel",
    "summarize_result": "repro.experiments.parallel",
    "sweep": "repro.experiments.sensitivity",
    "sweep_table": "repro.experiments.sensitivity",
    "set_config_field": "repro.experiments.sensitivity",
    "generate_report": "repro.experiments.reportgen",
    "write_report": "repro.experiments.reportgen",
    "DEFAULT_MODELS": "repro.experiments.model_ablation",
    "DEFAULT_SCENARIOS": "repro.experiments.model_ablation",
    "ablation_table": "repro.experiments.model_ablation",
    "run_model_ablation": "repro.experiments.model_ablation",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
