"""The QueryTracer: one balanced span per query phase.

Subscribes to the Query Patroller's lifecycle events and turns them into
:class:`~repro.obs.spans.Span` records:

* ``submitted``   (intercepted class) → open ``intercept``;
* ``intercepted``                     → close ``intercept``, open ``queue_wait``;
* ``released``                        → close ``queue_wait``, open ``execute``;
* ``completed``                       → close ``execute``;
* ``cancelled``                       → close whatever is open, emit a
  zero-length terminal marker.

The tracer holds its own ``completed`` subscription (it does not hear of
completions through the dispatcher), so a dropped dispatcher completion
callback — the ``repro.faults`` fault that leaks controller accounting —
cannot leak a span.  Queries still in flight when the run ends are closed
by :meth:`QueryTracer.finalize` with ``truncated=True``; after finalize
the trace is *balanced*: every opened span is closed.

Bypassed classes (the OLTP class in every paper experiment) produce no
spans: interception is exactly what they skip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import SimulationError
from repro.obs.spans import Span, validate_spans

if TYPE_CHECKING:  # wiring types only; the tracer duck-types at runtime
    from repro.dbms.query import Query
    from repro.patroller.patroller import QueryPatroller
    from repro.runtime import Clock
    from repro.workloads.schedule import PeriodSchedule


class QueryTracer:
    """Records one span per query phase off the live lifecycle hooks.

    Timestamps come exclusively from the injected ``clock`` — any
    :class:`~repro.runtime.Clock` (the simulator under the sim backend, a
    wall clock under real-time backends).
    """

    def __init__(
        self,
        clock: "Clock",
        patroller: "QueryPatroller",
        schedule: Optional["PeriodSchedule"] = None,
    ) -> None:
        self.clock = clock
        self.patroller = patroller
        self.schedule = schedule
        self._spans: List[Span] = []
        #: The at-most-one open lifecycle span per query id.
        self._open: Dict[int, Span] = {}
        self._opened = 0
        self._closed = 0
        self._finalized = False
        patroller.subscribe("submitted", self._on_submitted)
        patroller.subscribe("intercepted", self._on_intercepted)
        patroller.subscribe("released", self._on_released)
        patroller.subscribe("cancelled", self._on_cancelled)
        patroller.subscribe("completed", self._on_completion)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Every recorded span in open order (a copy)."""
        return self.spans_from(0)

    def spans_from(self, start: int) -> List[Span]:
        """The spans recorded from position ``start`` on (a copy), so a
        poller's work is proportional to what is new."""
        return self._spans[start:]

    @property
    def opened(self) -> int:
        """Total spans ever opened (terminal markers included)."""
        return self._opened

    @property
    def closed(self) -> int:
        """Total spans closed so far."""
        return self._closed

    @property
    def open_count(self) -> int:
        """Spans currently open (0 after :meth:`finalize`)."""
        return len(self._open)

    @property
    def balanced(self) -> bool:
        """Whether every opened span has been closed."""
        return self._opened == self._closed and not self._open

    def spans_for(self, query_id: int) -> List[Span]:
        """All spans of one query, in open order."""
        return [s for s in self._spans if s.query_id == query_id]

    def validate(self) -> List[str]:
        """Strict structural problems in the trace (empty when healthy)."""
        return validate_spans(self._spans)

    def assert_balanced(self) -> None:
        """Raise :class:`SimulationError` unless the trace is balanced."""
        if not self.balanced:
            stuck = sorted(self._open)
            raise SimulationError(
                "trace unbalanced: {} opened, {} closed, open for queries {}".format(
                    self._opened, self._closed, stuck[:10]
                )
            )

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------
    def _period_at(self, time: float) -> Optional[int]:
        if self.schedule is None:
            return None
        return self.schedule.period_at(time)

    def _open_span(self, query: "Query", phase: str, begin: float) -> Span:
        span = Span(
            query_id=query.query_id,
            class_name=query.class_name,
            phase=phase,
            begin=begin,
            template=query.template,
            kind=query.kind,
            estimated_cost=query.estimated_cost,
            period=self._period_at(begin),
        )
        self._spans.append(span)
        self._open[query.query_id] = span
        self._opened += 1
        return span

    def _close_open(self, query_id: int, end: float) -> Optional[Span]:
        span = self._open.pop(query_id, None)
        if span is None:
            return None
        span.close(end)
        self._closed += 1
        return span

    def _terminal(self, query: "Query", phase: str, now: float) -> None:
        span = Span(
            query_id=query.query_id,
            class_name=query.class_name,
            phase=phase,
            begin=now,
            template=query.template,
            kind=query.kind,
            estimated_cost=query.estimated_cost,
            period=self._period_at(now),
        )
        span.close(now)
        self._spans.append(span)
        self._opened += 1
        self._closed += 1

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_submitted(self, query: "Query") -> None:
        if self.patroller.intercepts(query.class_name):
            self._open_span(query, "intercept", self.clock.now)

    def _on_intercepted(self, query: "Query") -> None:
        now = self.clock.now
        if self._close_open(query.query_id, now) is not None:
            self._open_span(query, "queue_wait", now)

    def _on_released(self, query: "Query") -> None:
        now = self.clock.now
        if self._close_open(query.query_id, now) is not None:
            self._open_span(query, "execute", now)

    def _on_cancelled(self, query: "Query") -> None:
        now = self.clock.now
        if self._close_open(query.query_id, now) is not None:
            self._terminal(query, "cancelled", now)

    def _on_completion(self, query: "Query") -> None:
        self._close_open(query.query_id, self.clock.now)

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self, now: Optional[float] = None) -> "QueryTracer":
        """Close every still-open span at ``now`` (default: sim time).

        Statements in flight at the simulation horizon never see their
        natural end event; their spans are closed as ``truncated`` so the
        trace balances without inventing phase ends.  Idempotent.
        """
        if now is None:
            now = self.clock.now
        for query_id in sorted(self._open):
            span = self._open.pop(query_id)
            span.close(max(now, span.begin), truncated=True)
            self._closed += 1
        self._finalized = True
        return self
