"""Observability: per-query tracing, instrument registry, self-profiling.

Three pillars on top of the interval-level telemetry of
:mod:`repro.metrics.telemetry`:

* :class:`QueryTracer` — one balanced span per query phase (``intercept``,
  ``queue_wait``, ``execute``, terminal ``cancelled``/``rejected``),
  exportable as JSONL or Chrome trace-event JSON (Perfetto);
* :class:`MetricsRegistry` — named Counter/Gauge live reads the
  controller components register themselves into, renderable as
  Prometheus text;
* :class:`IntervalProfiler` — real wall-clock cost of the controller's own
  per-interval work (monitor/solver/dispatcher), strictly separate from
  sim time, surfaced as the ``overhead`` telemetry section.

See ``docs/OBSERVABILITY.md`` for usage.
"""

from repro.obs.export import (
    load_chrome_trace,
    load_spans,
    load_spans_jsonl,
    save_chrome_trace,
    save_spans_jsonl,
    spans_to_chrome,
    spans_to_jsonl,
)
from repro.obs.profiling import IntervalProfiler, summarize_overhead
from repro.obs.registry import Counter, Gauge, Instrument, MetricsRegistry
from repro.obs.spans import (
    PHASES,
    TERMINAL_PHASES,
    PhaseStats,
    Span,
    phase_breakdown,
    slowest_spans,
    validate_spans,
)
from repro.obs.tracer import QueryTracer

__all__ = [
    "PHASES",
    "TERMINAL_PHASES",
    "Counter",
    "Gauge",
    "Instrument",
    "IntervalProfiler",
    "MetricsRegistry",
    "PhaseStats",
    "QueryTracer",
    "Span",
    "load_chrome_trace",
    "load_spans",
    "load_spans_jsonl",
    "phase_breakdown",
    "save_chrome_trace",
    "save_spans_jsonl",
    "slowest_spans",
    "spans_to_chrome",
    "spans_to_jsonl",
    "summarize_overhead",
    "validate_spans",
]
