"""Runtime validation: invariants over the live control loop.

The closed loop of Monitor → Planner → Solver → Dispatcher adapts *around*
internal accounting bugs instead of failing on them, so this package keeps
an explicit oracle: a registry of named invariants evaluated against the
live components at every control-interval boundary.  See
docs/VALIDATION.md for the authoring guide and ``repro check`` for the CLI
entry point.
"""

from repro import lazy_exports

_EXPORTS = {
    "MODES": "repro.validation.harness",
    "ControlLoopWorld": "repro.validation.harness",
    "Invariant": "repro.validation.invariants",
    "InvariantRegistry": "repro.validation.invariants",
    "Severity": "repro.validation.invariants",
    "ValidationHarness": "repro.validation.harness",
    "Violation": "repro.validation.invariants",
    "attach_harness": "repro.validation.harness",
    "core_invariants": "repro.validation.harness",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
