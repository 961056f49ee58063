"""Declarative workload scenarios: YAML in, :class:`ExperimentSpec` out.

The scenario subsystem turns "open a new workload" into a YAML file: a
schema-validated, versioned document describing classes + SLOs, per-class
client-count curves (explicit lists or generators — constant, step,
diurnal sine, flash-crowd spike, ramp), controller/backend choice,
configuration overrides, invariant mode, and scheduled behavioral fault
injections.  ``repro run --scenario <name|path>`` runs one;
``repro scenarios`` lists and validates the shipped library.  See
docs/SCENARIOS.md for the format reference and catalog.
"""

from repro import lazy_exports

_EXPORTS = {
    "GENERATORS": "repro.scenarios.generators",
    "LIBRARY_DIR": "repro.scenarios.loader",
    "SCENARIO_FORMAT_VERSION": "repro.scenarios.spec",
    "SMOKE_PERIOD_SECONDS": "repro.scenarios.spec",
    "ClientCurve": "repro.scenarios.spec",
    "ScenarioClass": "repro.scenarios.spec",
    "ScenarioFault": "repro.scenarios.spec",
    "ScenarioSpec": "repro.scenarios.spec",
    "ShardPlan": "repro.scenarios.spec",
    "find_scenario": "repro.scenarios.loader",
    "library_names": "repro.scenarios.loader",
    "library_paths": "repro.scenarios.loader",
    "load_library_scenario": "repro.scenarios.loader",
    "load_scenario": "repro.scenarios.loader",
    "loads_scenario": "repro.scenarios.loader",
    "resolve_generator": "repro.scenarios.generators",
    "save_scenario": "repro.scenarios.loader",
    "scenario_from_mapping": "repro.scenarios.spec",
    "scenario_to_mapping": "repro.scenarios.spec",
    "scenario_to_yaml": "repro.scenarios.loader",
    "to_experiment_spec": "repro.scenarios.spec",
    "to_sharded_experiment_spec": "repro.scenarios.spec",
    "validate_library": "repro.scenarios.loader",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
