"""A unified instrument registry: named counters, gauges and histograms.

Tempo-style continuous resource management needs *instrument-level*
monitoring — live counters every component publishes into one place — not
just the per-period aggregates the figures plot.  :class:`MetricsRegistry`
is that place: Dispatcher, Monitor, Planner, Solver, Patroller and the
workload detector register their instruments here, the control loop calls
:meth:`MetricsRegistry.sample` once per control interval to build time
series, and :meth:`MetricsRegistry.to_prometheus` renders the whole state
in the Prometheus text exposition format.

Instruments come in two flavours:

* **owned** — the component holds the instrument and mutates it
  (``counter.inc()``, ``gauge.set()``, ``histogram.observe()``); the
  dispatcher's released/completed/cancelled counters are owned;
* **callback** — the instrument reads a live value on demand
  (``callback=lambda: ...``); used to mirror existing component state
  (queue lengths, in-flight costs, solver call counts) without duplicating
  bookkeeping.

Instrument *families* share a name across label sets (one family
``dispatcher_enqueued_total``, one member per service class), which is
what makes the Prometheus rendering well-formed.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MetricsError

#: Instrument kinds.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

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
    """Base class: one named, optionally labelled, measurable value."""

    kind = "abstract"

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.callback = callback
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current value (invokes the callback for callback instruments)."""
        if self.callback is not None:
            return _finite(self.callback())
        return self._value

    def _require_owned(self, operation: str) -> None:
        if self.callback is not None:
            raise MetricsError(
                "{} {!r} is callback-backed; {} is not allowed".format(
                    self.kind, self.name, operation
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({}{})".format(
            type(self).__name__, self.name, _render_labels(self.labels)
        )


class Counter(Instrument):
    """Monotonically non-decreasing count."""

    kind = COUNTER

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        self._require_owned("inc()")
        if amount < 0:
            raise MetricsError(
                "counter {!r} cannot decrease (inc({}))".format(self.name, amount)
            )
        self._value += amount


class Gauge(Instrument):
    """A value that can go up and down."""

    kind = GAUGE

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._require_owned("set()")
        self._value = _finite(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        self._require_owned("inc()")
        self._value += amount


class HistogramInstrument(Instrument):
    """Cumulative-bucket histogram of observations."""

    kind = HISTOGRAM

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricsError(
                "histogram {!r} needs sorted, non-empty buckets".format(name)
            )
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1

    @property
    def value(self) -> float:
        """Histograms sample as their observation count."""
        return float(self.count)

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts (Prometheus ``le`` semantics)."""
        return list(self.bucket_counts)


class _Family:
    """All instruments sharing one name (one per label set)."""

    __slots__ = ("name", "kind", "description", "unit", "members")

    def __init__(self, name: str, kind: str, description: str, unit: str) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.unit = unit
        self.members: Dict[LabelSet, Instrument] = {}


class MetricsRegistry:
    """Get-or-create instrument registry with interval sampling.

    ``max_samples`` bounds the in-memory sampling time series as a ring
    buffer: once that many samples are held, each new :meth:`sample`
    evicts the oldest one and bumps :attr:`samples_dropped`.  The default
    (``None``) keeps every sample — the right behaviour for bounded sim
    runs — while long wall-clock serve-mode runs set a bound so a
    dashboard left up overnight cannot grow memory without limit.
    """

    def __init__(self, max_samples: Optional[int] = None) -> None:
        self._families: Dict[str, _Family] = {}
        #: What :meth:`sample` walks, in iteration order: ``(series key,
        #: None, instrument)``, or ``(count key, sum key, histogram)``.
        #: Dropped whenever an instrument is registered and rebuilt by the
        #: next sample, so labels are rendered and escaped once per
        #: instrument and every sample dict shares the same key strings.
        self._sample_plan: Optional[
            List[Tuple[str, Optional[str], Instrument]]
        ] = None
        self._samples: Deque[Tuple[float, Dict[str, float]]] = deque()
        self._max_samples: Optional[int] = None
        #: Samples evicted from the ring buffer so far (never resets).
        self.samples_dropped = 0
        self.max_samples = max_samples

    @property
    def max_samples(self) -> Optional[int]:
        """The ring-buffer bound (None = unbounded)."""
        return self._max_samples

    @max_samples.setter
    def max_samples(self, value: Optional[int]) -> None:
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise MetricsError(
                "max_samples must be a positive integer or None, got {!r}".format(
                    value
                )
            )
        self._max_samples = value
        if value is not None:
            while len(self._samples) > value:
                self._samples.popleft()
                self.samples_dropped += 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, description: str, unit: str) -> _Family:
        if not name or not name.replace("_", "a").isalnum():
            raise MetricsError(
                "instrument name {!r} must be non-empty [a-zA-Z0-9_]".format(name)
            )
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, description, unit)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise MetricsError(
                "instrument {!r} already registered as a {} (asked for a {})".format(
                    name, family.kind, kind
                )
            )
        if description and not family.description:
            family.description = description
        return family

    def _member(
        self,
        family: _Family,
        labels: Optional[Dict[str, str]],
        create: Callable[[LabelSet], Instrument],
    ) -> Instrument:
        """Get or create the family's member with the given labels."""
        key = _label_key(labels)
        member = family.members.get(key)
        if member is None:
            member = family.members[key] = create(key)
            self._sample_plan = None
        return member

    def counter(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labels: Optional[Dict[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> Counter:
        """Get or create the counter ``name`` with the given labels."""
        return self._member(  # type: ignore[return-value]
            self._family(name, COUNTER, description, unit),
            labels,
            lambda key: Counter(name, key, callback=callback),
        )

    def gauge(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labels: Optional[Dict[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        """Get or create the gauge ``name`` with the given labels."""
        return self._member(  # type: ignore[return-value]
            self._family(name, GAUGE, description, unit),
            labels,
            lambda key: Gauge(name, key, callback=callback),
        )

    def histogram(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> HistogramInstrument:
        """Get or create the histogram ``name`` with the given labels."""
        return self._member(  # type: ignore[return-value]
            self._family(name, HISTOGRAM, description, unit),
            labels,
            lambda key: HistogramInstrument(name, key, buckets=buckets),
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
    # Sampling
    # ------------------------------------------------------------------
    @staticmethod
    def _series_key(name: str, labels: LabelSet) -> str:
        return name + _render_labels(labels)

    def sample(self, now: float) -> Dict[str, float]:
        """Snapshot every instrument's value at sim time ``now``.

        The snapshot is appended to the in-memory time series and returned.
        Histograms contribute their observation count and sum as
        ``name_count`` / ``name_sum`` entries.
        """
        plan = self._sample_plan
        if plan is None:
            plan = self._sample_plan = []
            for instrument in self:
                key = self._series_key(instrument.name, instrument.labels)
                if isinstance(instrument, HistogramInstrument):
                    plan.append((key + "_count", key + "_sum", instrument))
                else:
                    plan.append((key, None, instrument))
        values: Dict[str, float] = {}
        for key, sum_key, instrument in plan:
            if sum_key is None:
                values[key] = instrument.value
            else:
                values[key] = float(instrument.count)
                values[sum_key] = instrument.sum
        if (
            self._max_samples is not None
            and len(self._samples) >= self._max_samples
        ):
            self._samples.popleft()
            self.samples_dropped += 1
        self._samples.append((now, values))
        return values

    @property
    def samples(self) -> List[Tuple[float, Dict[str, float]]]:
        """All (time, snapshot) samples, in sampling order (a copy)."""
        return list(self._samples)

    def series(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> List[Tuple[float, float]]:
        """The sampled (time, value) series of one instrument."""
        self.get(name, labels)  # validates existence with a clear error
        key = self._series_key(name, _label_key(labels))
        out: List[Tuple[float, float]] = []
        for time, values in self._samples:
            if key in values:
                out.append((time, values[key]))
            elif key + "_count" in values:  # histogram member
                out.append((time, values[key + "_count"]))
        return out

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


def _render_member_lines(
    lines: List[str], name: str, member: Instrument, key: LabelSet
) -> None:
    """Append one member's sample lines (bucket/sum/count for histograms)."""
    if isinstance(member, HistogramInstrument):
        for bound, count in zip(member.buckets, member.cumulative_counts()):
            bucket_labels = key + (("le", repr(bound)),)
            lines.append(
                "{}_bucket{} {}".format(name, _render_labels(bucket_labels), count)
            )
        inf_labels = key + (("le", "+Inf"),)
        lines.append(
            "{}_bucket{} {}".format(name, _render_labels(inf_labels), member.count)
        )
        lines.append("{}_sum{} {}".format(name, _render_labels(key), member.sum))
        lines.append("{}_count{} {}".format(name, _render_labels(key), member.count))
    else:
        lines.append("{}{} {}".format(name, _render_labels(key), member.value))


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
                _render_member_lines(lines, name, member, rendered_key)
    return "\n".join(lines) + ("\n" if lines else "")
