"""The file -> layer map and the fold of a cProfile run into layers.

Layers are this repository's modules, mapped by *defining file* (path
relative to ``src/repro/``).  A rule is a file or a directory prefix; the
longest matching rule wins.  There is deliberately no default: a file no
rule covers is reported by :func:`unmapped_files` and fails
``perf/tests/test_smoke.py``, so a new package must be assigned a layer
rather than silently landing in ``other``.

Time spent in C builtins, the standard library and the harness itself is
charged to the layer that called it.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("dbms/", "dbms"),
    ("patroller/", "patroller"),
    ("workloads/", "workloads"),
    ("core/dispatcher.py", "core.dispatcher"),
    ("core/classifier.py", "core.dispatcher"),
    ("core/monitor.py", "core.monitor"),
    ("core/planner.py", "core.planner"),
    ("core/solver.py", "core.solver"),
    ("core/utility.py", "core.solver"),
    ("core/plan.py", "core.solver"),
    ("core/heuristic.py", "core.solver"),
    ("core/modeling/", "core.modeling"),
    ("core/models.py", "core.modeling"),
    ("core/", "core.other"),
    ("metrics/collector.py", "metrics.collector"),
    ("metrics/aggregate.py", "metrics.collector"),
    ("metrics/telemetry.py", "metrics.telemetry"),
    ("metrics/", "metrics.export"),
    ("obs/tracer.py", "obs.tracer"),
    ("obs/spans.py", "obs.tracer"),
    ("obs/export.py", "obs.tracer"),
    ("obs/live/", "obs.live"),
    ("obs/", "obs.registry"),
    ("validation/", "validation"),
    ("scenarios/", "scenarios"),
    ("shard/", "shard"),
    ("experiments/", "experiments"),
    ("runtime/", "experiments"),
    ("config.py", "experiments"),
    ("faults.py", "experiments"),
    ("bench/", "other"),
    ("cli.py", "other"),
    ("errors.py", "other"),
    ("__init__.py", "other"),
    ("__main__.py", "other"),
)

#: Every layer, in first-mention order (``other`` last).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in RULES))

#: Layers whose self time is the price of observing, not of running.
OBSERVER_LAYERS = ("metrics.telemetry", "obs.registry", "obs.tracer", "obs.live", "validation")

#: Caller/callee label in the layer table for code outside ``src/repro``.
EXTERNAL = "external"


def layer_of(relative_path: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro`` (None: no rule covers it)."""
    relative_path = relative_path.replace(os.sep, "/")
    best: Optional[Tuple[str, str]] = None
    for rule, layer in RULES:
        matches = (
            relative_path.startswith(rule) if rule.endswith("/") else relative_path == rule
        )
        if matches and (best is None or len(rule) > len(best[0])):
            best = (rule, layer)
    return best[1] if best else None


def unmapped_files(package_dir: str) -> List[str]:
    """Python files under ``package_dir`` (``src/repro``) that no rule covers."""
    missing = []
    for folder, _, names in os.walk(package_dir):
        for name in names:
            if name.endswith(".py"):
                relative = os.path.relpath(os.path.join(folder, name), package_dir)
                if layer_of(relative) is None:
                    missing.append(relative.replace(os.sep, "/"))
    return sorted(missing)


class Fold:
    """One profile folded into layers (times in seconds, calls as counts)."""

    def __init__(self, stats: Dict, package_dir: str) -> None:
        self._stats = stats
        self._package = os.path.join(os.path.abspath(package_dir), "")
        self._owners: Dict[tuple, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (caller layer, callee layer) -> [calls, callee self s, callee cumulative s]
        self.table: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.total_s = 0.0
        self.total_calls = 0
        for func, (_, calls, self_s, _, callers) in stats.items():
            self.total_s += self_s
            self.total_calls += calls
            layer = self.layer(func)
            if layer is not None:
                self.self_s[layer] += self_s
                self.calls[layer] += calls
            else:
                charged = 0.0
                for caller, (_, _, edge_self, _) in callers.items():
                    for owner, share in self._owner(caller).items():
                        self.self_s[owner] += edge_self * share
                        charged += edge_self * share
                # Roots (the harness's entry call) and recursion remainders.
                self.self_s["other"] += self_s - charged
            for caller, (edge_calls, _, edge_self, edge_cum) in callers.items():
                cell = self.table[(self.layer(caller) or EXTERNAL, layer or EXTERNAL)]
                cell[0] += edge_calls
                cell[1] += edge_self
                cell[2] += edge_cum

    def _relative(self, func: tuple) -> Optional[str]:
        """A profiled function's file relative to the package ('/'-separated),
        or None for code outside it."""
        filename = func[0]
        if not filename.startswith(self._package):
            return None
        return filename[len(self._package):].replace(os.sep, "/")

    def layer(self, func: tuple) -> Optional[str]:
        """Layer of a profiled function; None for code outside the package."""
        relative = self._relative(func)
        return None if relative is None else layer_of(relative) or "other"

    def _owner(self, func: tuple, _active: Optional[set] = None) -> Dict[str, float]:
        """Which layers a function's time is charged to, as shares summing <= 1.

        A package function owns itself; an external one is owned by its
        callers in proportion to the cumulative time each spent in it.
        """
        layer = self.layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._owners:
            return self._owners[func]
        active = _active if _active is not None else set()
        if func in active:  # recursion through external code: drop the share
            return {}
        active.add(func)
        callers = self._stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {c: edge[3] for c, edge in callers.items()}
        if not any(weights.values()):
            weights = {c: float(edge[0]) for c, edge in callers.items()}
        total = sum(weights.values())
        owners: Dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, weight in weights.items():
                for owner, share in self._owner(caller, active).items():
                    owners[owner] += share * weight / total
        active.discard(func)
        if _active is None:
            self._owners[func] = dict(owners)
        return dict(owners)

    # ------------------------------------------------------------------
    # Queries by function
    # ------------------------------------------------------------------
    def _matching(self, path: str, names: Iterable[str]):
        """Entries of the named functions defined in a file, or under a ``dir/``."""
        names = set(names)
        for func, entry in self._stats.items():
            relative = self._relative(func)
            if relative is None or func[2] not in names:
                continue
            if relative == path or (path.endswith("/") and relative.startswith(path)):
                yield func, entry

    def calls_to(self, relative_path: str, *names: str) -> int:
        """Calls to the named functions defined in a file (or under a dir)."""
        return sum(entry[1] for _, entry in self._matching(relative_path, names))

    def cumulative_s(self, relative_path: str, name: str) -> float:
        """Cumulative seconds under the named function."""
        return sum(entry[3] for _, entry in self._matching(relative_path, (name,)))

    def calls_into(self, relative_path: str, name: str, layer: str) -> int:
        """Calls to the named functions made from *outside* ``layer``."""
        return sum(
            edge[0]
            for _, entry in self._matching(relative_path, (name,))
            for caller, edge in entry[4].items()
            if self.layer(caller) != layer
        )

    def table_rows(self) -> List[Dict]:
        """The layer x layer table as JSON-safe rows, costliest first."""
        rows = [
            {
                "caller": caller,
                "callee": callee,
                "calls": int(cell[0]),
                "callee_self_s": cell[1],
                "callee_cumulative_s": cell[2],
            }
            for (caller, callee), cell in self.table.items()
        ]
        return sorted(rows, key=lambda row: -row["callee_self_s"])
