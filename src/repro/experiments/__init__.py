"""Experiment harness: builds full simulations and reproduces the paper's
calibration sweep and Figures 2-7."""

from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    SimulationBundle,
    assemble_run,
    build_bundle,
    finish_run,
    make_controller,
    run_spec,
)
from repro.experiments.calibration import (
    fit_oltp_slope,
    sweep_system_cost_limit,
)
from repro.experiments.figures import (
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.model_ablation import (
    DEFAULT_MODELS,
    DEFAULT_SCENARIOS,
    ablation_table,
    run_model_ablation,
)
from repro.experiments.parallel import (
    RunOutcome,
    RunRequest,
    RunSummary,
    execute_request,
    run_requests,
    summarize_result,
)
from repro.experiments.replication import (
    ReplicationSummary,
    RunFailure,
    compare,
    comparison_table,
    replicate,
)
from repro.experiments.reportgen import generate_report, write_report
from repro.experiments.sensitivity import (
    set_config_field,
    sweep,
    sweep_table,
)

__all__ = [
    "SimulationBundle",
    "ExperimentResult",
    "ExperimentSpec",
    "build_bundle",
    "make_controller",
    "assemble_run",
    "run_spec",
    "finish_run",
    "sweep_system_cost_limit",
    "fit_oltp_slope",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "replicate",
    "compare",
    "comparison_table",
    "ReplicationSummary",
    "RunFailure",
    "RunRequest",
    "RunSummary",
    "RunOutcome",
    "run_requests",
    "execute_request",
    "summarize_result",
    "sweep",
    "sweep_table",
    "set_config_field",
    "generate_report",
    "write_report",
    "DEFAULT_MODELS",
    "DEFAULT_SCENARIOS",
    "ablation_table",
    "run_model_ablation",
]
