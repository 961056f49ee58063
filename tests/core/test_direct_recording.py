"""Recorded ``direct`` runs: the reference the gate swap is checked against.

The fixture holds the per-class per-period series, completions and goal
attainment of the ``direct`` controller at seeds 7 and 23, on the default
spec and on ``benchmarks/bench_extension_direct.py``'s two-OLTP-class storm
scenario.  It was recorded at the commit that made the in-engine gate FIFO
(a fitting arrival no longer overtakes its class queue) and *before*
``direct`` moved onto the shared planner and dispatcher, so exact equality
here is what "the swap changed wiring, not behaviour" means.  Regenerate
(``python tests/core/test_direct_recording.py``) only for a change that is
meant to move ``direct``'s decisions.
"""

from __future__ import annotations

import importlib.util
import json
import os
from dataclasses import replace

import pytest

from repro.config import default_config
from repro.experiments.runner import (
    ExperimentSpec,
    build_bundle,
    make_controller,
    run_spec,
)

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "fixtures", "direct_series.json")
BENCH = os.path.join(HERE, "..", "..", "benchmarks", "bench_extension_direct.py")
SEEDS = (7, 23)


def _facts(collector, classes):
    return {
        "series": {c.name: collector.performance_series(c) for c in classes},
        "completions": collector.completions_by_class(),
        "attainment": {c.name: collector.goal_attainment(c) for c in classes},
    }


def _default_spec(seed):
    result = run_spec(
        ExperimentSpec(controller="direct", config=default_config(seed=seed))
    )
    return _facts(result.collector, result.classes)


def _storm_scenario(seed):
    spec = importlib.util.spec_from_file_location("bench_extension_direct", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bundle = build_bundle(
        config=replace(bench._scenario_config(), seed=seed),
        schedule=bench._schedule(),
        classes=bench._classes(),
        mixes=bench._mixes(),
    )
    make_controller(bundle, "direct").start()
    bundle.manager.start()
    bundle.run()
    return _facts(bundle.collector, bundle.classes)


SCENARIOS = {"default_spec": _default_spec, "storm_scenario": _storm_scenario}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_direct_run_equals_the_recording(scenario, seed):
    with open(FIXTURE) as handle:
        recorded = json.load(handle)[scenario][str(seed)]
    assert SCENARIOS[scenario](seed) == recorded


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump(
            {
                name: {str(seed): run(seed) for seed in SEEDS}
                for name, run in sorted(SCENARIOS.items())
            },
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
