"""YAML IO and the named scenario library.

Scenarios live as YAML documents; this module loads/saves them and
resolves *names* against the shipped library under
``src/repro/scenarios/library/`` — ``repro run --scenario flash-crowd``
finds ``library/flash-crowd.yaml``, while anything that looks like a path
(or exists on disk) is loaded as a file.

PyYAML is the only third-party dependency of the scenario subsystem and
is imported lazily, so the rest of the package works without it; any
scenario entry point raises a clear :class:`ScenarioError` when it is
missing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Tuple

from repro.errors import ScenarioError
from repro.metrics.export import open_export
from repro.scenarios.spec import (
    ScenarioSpec,
    scenario_from_mapping,
    scenario_to_mapping,
)

#: Directory holding the shipped named scenarios.
LIBRARY_DIR = Path(__file__).resolve().parent / "library"


def _yaml():
    try:
        import yaml
    except ImportError:  # pragma: no cover - environment without PyYAML
        raise ScenarioError(
            "the scenario subsystem needs PyYAML (the 'yaml' module) to "
            "read/write scenario files; install pyyaml"
        )
    return yaml


def loads_scenario(text: str) -> ScenarioSpec:
    """Parse and validate a scenario from YAML text."""
    document = _yaml().safe_load(text)
    return scenario_from_mapping(document)


def load_scenario(path) -> ScenarioSpec:
    """Load and validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError("cannot read scenario file {}: {}".format(path, exc))
    try:
        return loads_scenario(text)
    except ScenarioError as exc:
        raise ScenarioError("{}: {}".format(path, exc))


def scenario_to_yaml(spec: ScenarioSpec) -> str:
    """Serialize a scenario back to canonical YAML.

    Round-trip safe: ``loads_scenario(scenario_to_yaml(spec)) == spec``
    for every valid spec.
    """
    return _yaml().safe_dump(
        scenario_to_mapping(spec), sort_keys=False, default_flow_style=False
    )


def save_scenario(spec: ScenarioSpec, path) -> None:
    """Write a scenario as canonical YAML."""
    with open_export(path, overwrite=True) as handle:
        handle.write(scenario_to_yaml(spec))


def library_paths() -> Dict[str, Path]:
    """Shipped scenario names mapped to their YAML files (sorted)."""
    if not LIBRARY_DIR.is_dir():  # pragma: no cover - broken install
        return {}
    return {
        path.stem: path
        for path in sorted(LIBRARY_DIR.glob("*.yaml"))
    }


def library_names() -> List[str]:
    """Names accepted by ``repro run --scenario <name>``."""
    return sorted(library_paths())


def load_library_scenario(name: str) -> ScenarioSpec:
    """Load one shipped scenario by name."""
    path = library_paths().get(name)
    if path is None:
        raise ScenarioError(
            "no library scenario named {!r}; available: {}".format(
                name, ", ".join(library_names()) or "none"
            )
        )
    return load_scenario(path)


def find_scenario(name_or_path: str) -> ScenarioSpec:
    """Resolve a CLI argument: a library name, or a path to a YAML file."""
    if os.path.exists(name_or_path):
        return load_scenario(name_or_path)
    looks_like_path = os.sep in name_or_path or name_or_path.endswith(
        (".yaml", ".yml")
    )
    if not looks_like_path and name_or_path in library_paths():
        return load_library_scenario(name_or_path)
    raise ScenarioError(
        "no scenario {!r}: not a file, and not one of the library "
        "scenarios ({})".format(name_or_path, ", ".join(library_names()))
    )


def validate_library() -> List[Tuple[str, str]]:
    """Validate every shipped scenario; returns ``(name, error)`` failures.

    An empty list means the whole library loads, validates, and
    round-trips through serialization.
    """
    failures: List[Tuple[str, str]] = []
    for name, path in library_paths().items():
        try:
            spec = load_scenario(path)
            again = loads_scenario(scenario_to_yaml(spec))
            if again != spec:
                failures.append((name, "serialization round-trip mismatch"))
        except ScenarioError as exc:
            failures.append((name, str(exc)))
    return failures
