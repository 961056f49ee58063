"""Per-query lifecycle spans.

The paper's central argument for *indirect* OLTP control is an overhead
argument: intercepting a sub-second statement costs more than running it
(Section 3).  Arguing about overhead requires knowing where a query's life
actually goes, so the tracer decomposes every traced statement into the
phases the adaptation mechanism adds around execution:

* ``intercept``  — submit to Query-Patroller interception (the added
  interception latency the paper measures in Section 3);
* ``queue_wait`` — held in a service-class queue awaiting release;
* ``execute``    — release to completion (the paper's execution time);

plus a zero-length *terminal* marker, ``cancelled``, for statements that
never complete.  A :class:`Span` is one phase of one
query with sim-time begin/end and enough identity (class, template, period,
timeron cost) to aggregate by any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError

#: Lifecycle phases in their mandatory order.
PHASES = ("intercept", "queue_wait", "execute")

#: Terminal markers for queries that never complete (zero-length spans).
TERMINAL_PHASES = ("cancelled",)

#: Order index used to validate per-query phase sequencing.
_PHASE_ORDER = {name: index for index, name in enumerate(PHASES)}


@dataclass
class Span:
    """One phase of one query's life, in simulation time."""

    query_id: int
    class_name: str
    phase: str
    begin: float
    end: Optional[float] = None
    template: str = ""
    kind: str = ""
    estimated_cost: float = 0.0
    period: Optional[int] = None
    #: True when the span was force-closed at end of run (the simulation
    #: horizon arrived before the phase's natural end event).
    truncated: bool = False

    @property
    def closed(self) -> bool:
        """Whether the span has an end time."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in sim seconds (raises while still open)."""
        if self.end is None:
            raise SimulationError(
                "span {}/{} read before close".format(self.query_id, self.phase)
            )
        return self.end - self.begin

    def close(self, end: float, truncated: bool = False) -> "Span":
        """Close the span at ``end``; idempotent close is an error."""
        if self.end is not None:
            raise SimulationError(
                "span {}/{} closed twice".format(self.query_id, self.phase)
            )
        if end < self.begin:
            raise SimulationError(
                "span {}/{} closes at {} before its begin {}".format(
                    self.query_id, self.phase, end, self.begin
                )
            )
        self.end = end
        self.truncated = truncated
        return self

    def to_dict(self) -> Dict:
        """JSON-ready representation (one JSONL line)."""
        return {
            "query_id": self.query_id,
            "class": self.class_name,
            "phase": self.phase,
            "begin": self.begin,
            "end": self.end,
            "template": self.template,
            "kind": self.kind,
            "estimated_cost": self.estimated_cost,
            "period": self.period,
            "truncated": self.truncated,
        }

    @staticmethod
    def from_dict(data: Dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return Span(
            query_id=int(data["query_id"]),
            class_name=data["class"],
            phase=data["phase"],
            begin=float(data["begin"]),
            end=None if data.get("end") is None else float(data["end"]),
            template=data.get("template", ""),
            kind=data.get("kind", ""),
            estimated_cost=float(data.get("estimated_cost", 0.0)),
            period=data.get("period"),
            truncated=bool(data.get("truncated", False)),
        )


@dataclass
class PhaseStats:
    """Duration statistics for one (class, phase) cell."""

    class_name: str
    phase: str
    durations: List[float] = field(default_factory=list)

    def add(self, duration: float) -> None:
        """Fold in one span's duration."""
        self.durations.append(duration)

    @property
    def count(self) -> int:
        """Number of spans aggregated."""
        return len(self.durations)

    @property
    def mean(self) -> float:
        """Mean duration (0 when empty)."""
        return sum(self.durations) / len(self.durations) if self.durations else 0.0

    @property
    def max(self) -> float:
        """Longest duration (0 when empty)."""
        return max(self.durations) if self.durations else 0.0

    def percentile(self, q: float) -> float:
        """Duration percentile ``q`` in [0, 100] (nearest-rank, 0 if empty)."""
        if not self.durations:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise SimulationError("percentile needs q in [0, 100], got {}".format(q))
        ordered = sorted(self.durations)
        rank = int(round(q / 100.0 * (len(ordered) - 1)))
        return ordered[rank]

    def to_dict(self) -> Dict:
        """JSON-ready summary (count/mean/p50/p95/max)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "max": self.max,
        }


def phase_breakdown(spans: Sequence[Span]) -> Dict[str, Dict[str, PhaseStats]]:
    """Per-class, per-phase duration statistics over closed spans.

    Terminal markers (zero-length) are excluded — they carry no duration
    signal, only the fact of abandonment.
    """
    cells: Dict[str, Dict[str, PhaseStats]] = {}
    for span in spans:
        if span.phase in TERMINAL_PHASES or span.end is None:
            continue
        by_phase = cells.setdefault(span.class_name, {})
        stats = by_phase.get(span.phase)
        if stats is None:
            stats = PhaseStats(span.class_name, span.phase)
            by_phase[span.phase] = stats
        stats.add(span.duration)
    return cells


def slowest_spans(
    spans: Sequence[Span], phase: str = "queue_wait", n: int = 5
) -> List[Span]:
    """The ``n`` longest closed spans of one phase, longest first."""
    candidates = [s for s in spans if s.phase == phase and s.end is not None]
    candidates.sort(key=lambda s: s.duration, reverse=True)
    return candidates[:n]


def validate_spans(spans: Sequence[Span]) -> List[str]:
    """Strict structural checks over a span set; returns problem strings.

    Verified invariants:

    * every span is closed with ``end >= begin``;
    * per query, lifecycle phases appear at most once and in order
      (``intercept`` before ``queue_wait`` before ``execute``), without
      overlapping in time;
    * per query, at most one terminal marker, and a query with a terminal
      marker has no span beginning after it.
    """
    problems: List[str] = []
    by_query: Dict[int, List[Span]] = {}
    for span in spans:
        by_query.setdefault(span.query_id, []).append(span)
        if span.end is None:
            problems.append(
                "query {} span {!r} never closed".format(span.query_id, span.phase)
            )
        elif span.end < span.begin:
            problems.append(
                "query {} span {!r} ends ({}) before it begins ({})".format(
                    span.query_id, span.phase, span.end, span.begin
                )
            )
        if span.phase not in PHASES and span.phase not in TERMINAL_PHASES:
            problems.append(
                "query {} has unknown phase {!r}".format(span.query_id, span.phase)
            )
    for query_id, query_spans in by_query.items():
        lifecycle = [s for s in query_spans if s.phase in PHASES]
        lifecycle.sort(key=lambda s: s.begin)
        seen: List[str] = []
        for span in lifecycle:
            if span.phase in seen:
                problems.append(
                    "query {} repeats phase {!r}".format(query_id, span.phase)
                )
            seen.append(span.phase)
        order = [_PHASE_ORDER[s.phase] for s in lifecycle]
        if order != sorted(order):
            problems.append(
                "query {} phases out of order: {}".format(
                    query_id, [s.phase for s in lifecycle]
                )
            )
        for earlier, later in zip(lifecycle, lifecycle[1:]):
            if earlier.end is not None and earlier.end > later.begin:
                problems.append(
                    "query {} span {!r} overlaps {!r}".format(
                        query_id, earlier.phase, later.phase
                    )
                )
        terminals = [s for s in query_spans if s.phase in TERMINAL_PHASES]
        if len(terminals) > 1:
            problems.append(
                "query {} has {} terminal markers".format(query_id, len(terminals))
            )
        if terminals:
            cutoff = terminals[0].begin
            for span in lifecycle:
                if span.begin > cutoff:
                    problems.append(
                        "query {} span {!r} begins after its terminal marker".format(
                            query_id, span.phase
                        )
                    )
    return problems
