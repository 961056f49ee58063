"""A unified instrument registry: named, labelled live reads.

Tempo-style continuous resource management needs *instrument-level*
monitoring — live counters every component publishes into one place — not
just the per-period aggregates the figures plot.  :class:`MetricsRegistry`
is that place: Dispatcher, Monitor, Planner, Solver, Patroller and the
workload detector each ``register_instruments(registry)``, and
:meth:`MetricsRegistry.to_prometheus` renders the whole state in the
Prometheus text exposition format.

Every instrument is a **callback**: it reads a live value from the
component that owns the number (``callback=lambda: ...``) — queue lengths,
in-flight costs, release totals, solver call counts — so nothing is
counted twice and a read is always current.  The registry records
nothing: the per-interval history of the same numbers is the
:class:`~repro.metrics.telemetry.ControlIntervalRecord` list behind
``result.extras["telemetry"]``.

Instrument *families* share a name across label sets (one family
``dispatcher_enqueued_total``, one member per service class), which is
what makes the Prometheus rendering well-formed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MetricsError

#: Instrument kinds.
COUNTER = "counter"
GAUGE = "gauge"

LabelSet = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelSet:
    return tuple(sorted((labels or {}).items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Inside double-quoted label values, backslash, double-quote and line
    feed must be escaped as ``\\\\``, ``\\"`` and ``\\n`` — a hostile
    value (say a query template containing quotes) must not break the
    rendered line or smuggle in extra labels.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text (only backslash and line feed are special)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    return "{" + ",".join(
        '{}="{}"'.format(k, _escape_label_value(v)) for k, v in labels
    ) + "}"


def _finite(value: float) -> float:
    value = float(value)
    return value if math.isfinite(value) else float("nan")


class Instrument:
    """Base class: one named, optionally labelled, live value."""

    kind = "abstract"

    def __init__(
        self, name: str, labels: LabelSet, callback: Callable[[], float]
    ) -> None:
        self.name = name
        self.labels = labels
        self.callback = callback

    @property
    def value(self) -> float:
        """Current value: whatever the callback reads now."""
        return _finite(self.callback())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({}{})".format(
            type(self).__name__, self.name, _render_labels(self.labels)
        )


class Counter(Instrument):
    """Monotonically non-decreasing count."""

    kind = COUNTER


class Gauge(Instrument):
    """A value that can go up and down."""

    kind = GAUGE


class _Family:
    """All instruments sharing one name (one per label set)."""

    __slots__ = ("name", "kind", "description", "members")

    def __init__(self, name: str, kind: str, description: str) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.members: Dict[LabelSet, Instrument] = {}


class MetricsRegistry:
    """Get-or-create table of callback instruments."""

    #: Always 0 (nothing is sampled, so nothing is dropped): kept only
    #: because ``perf/measure.py`` reads it.
    samples_dropped = 0

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _member(
        self,
        cls: type,
        name: str,
        callback: Callable[[], float],
        description: str,
        labels: Optional[Dict[str, str]],
    ) -> Instrument:
        """Get or create the ``cls`` instrument ``name`` with the labels."""
        if not name or not name.replace("_", "a").isalnum():
            raise MetricsError(
                "instrument name {!r} must be non-empty [a-zA-Z0-9_]".format(name)
            )
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, cls.kind, description)
        elif family.kind != cls.kind:
            raise MetricsError(
                "instrument {!r} already registered as a {} (asked for a {})".format(
                    name, family.kind, cls.kind
                )
            )
        elif description and not family.description:
            family.description = description
        key = _label_key(labels)
        member = family.members.get(key)
        if member is None:
            member = family.members[key] = cls(name, key, callback)
        return member

    def counter(
        self,
        name: str,
        callback: Callable[[], float],
        description: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Counter:
        """Get or create the counter ``name`` with the given labels."""
        return self._member(  # type: ignore[return-value]
            Counter, name, callback, description, labels
        )

    def gauge(
        self,
        name: str,
        callback: Callable[[], float],
        description: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Gauge:
        """Get or create the gauge ``name`` with the given labels."""
        return self._member(  # type: ignore[return-value]
            Gauge, name, callback, description, labels
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        """Registered family names, sorted."""
        return sorted(self._families)

    def __len__(self) -> int:
        return sum(len(f.members) for f in self._families.values())

    def __iter__(self) -> Iterator[Instrument]:
        for name in self.names:
            family = self._families[name]
            for key in sorted(family.members):
                yield family.members[key]

    def get(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Instrument:
        """Look up an existing instrument; raises :class:`MetricsError`."""
        family = self._families.get(name)
        if family is None:
            raise MetricsError(
                "unknown instrument {!r}; registered: {}".format(name, self.names)
            )
        key = _label_key(labels)
        member = family.members.get(key)
        if member is None:
            raise MetricsError(
                "instrument {!r} has no member with labels {}; members: {}".format(
                    name, dict(key), [dict(k) for k in family.members]
                )
            )
        return member

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_prometheus(self, extra_labels: Optional[Dict[str, str]] = None) -> str:
        """Current instrument state in the Prometheus text format.

        ``extra_labels`` are merged into every rendered sample's label set
        (e.g. ``{"shard": "3"}`` for one member of a fleet); they must not
        collide with an instrument's own label names.
        """
        return render_prometheus([(extra_labels, self)])


def render_prometheus(
    sources: Sequence[Tuple[Optional[Dict[str, str]], "MetricsRegistry"]],
) -> str:
    """Render one or more registries as a single well-formed exposition.

    ``sources`` is a sequence of ``(extra_labels, registry)`` pairs; every
    sample from a registry carries its extra labels (typically a
    ``{"shard": "N"}`` discriminator), and each metric family appears
    exactly once — ``# HELP``/``# TYPE`` are emitted once per family name
    even when several registries expose it.  Registries disagreeing on a
    family's kind raise :class:`~repro.errors.MetricsError`; an extra
    label colliding with an instrument's own label does too.
    """
    names: List[str] = []
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for extra, registry in sources:
        for name in registry.names:
            family = registry._families[name]
            if name not in kinds:
                names.append(name)
                kinds[name] = family.kind
            elif kinds[name] != family.kind:
                raise MetricsError(
                    "family {!r} registered as a {} in one registry and a {} "
                    "in another; fleet rendering needs consistent kinds".format(
                        name, kinds[name], family.kind
                    )
                )
            if family.description and name not in helps:
                helps[name] = family.description
    lines: List[str] = []
    for name in sorted(names):
        if name in helps:
            lines.append("# HELP {} {}".format(name, _escape_help(helps[name])))
        lines.append("# TYPE {} {}".format(name, kinds[name]))
        for extra, registry in sources:
            family = registry._families.get(name)
            if family is None:
                continue
            extra_key = _label_key(extra)
            for key in sorted(family.members):
                member = family.members[key]
                if extra_key:
                    own = {k for k, _ in key}
                    clash = [k for k, _ in extra_key if k in own]
                    if clash:
                        raise MetricsError(
                            "extra labels {} collide with {!r}'s own labels".format(
                                clash, name
                            )
                        )
                    rendered_key = tuple(sorted(key + extra_key))
                else:
                    rendered_key = key
                lines.append(
                    "{}{} {}".format(name, _render_labels(rendered_key), member.value)
                )
    return "\n".join(lines) + ("\n" if lines else "")
