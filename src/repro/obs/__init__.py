"""Observability: per-query tracing, instrument registry, self-profiling.

Three pillars on top of the interval-level telemetry of
:mod:`repro.metrics.telemetry`:

* :class:`QueryTracer` — one balanced span per query phase (``intercept``,
  ``queue_wait``, ``execute``, terminal ``cancelled``),
  exportable as JSONL or Chrome trace-event JSON (Perfetto);
* :class:`MetricsRegistry` — named Counter/Gauge live reads the
  controller components register themselves into, renderable as
  Prometheus text;
* :class:`IntervalProfiler` — real wall-clock cost of the controller's own
  per-interval work (monitor/solver/dispatcher), strictly separate from
  sim time, surfaced as the ``overhead`` telemetry section.

See ``docs/OBSERVABILITY.md`` for usage.
"""

from repro import lazy_exports

_EXPORTS = {
    "PHASES": "repro.obs.spans",
    "TERMINAL_PHASES": "repro.obs.spans",
    "Counter": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "Instrument": "repro.obs.registry",
    "IntervalProfiler": "repro.obs.profiling",
    "MetricsRegistry": "repro.obs.registry",
    "PhaseStats": "repro.obs.spans",
    "QueryTracer": "repro.obs.tracer",
    "Span": "repro.obs.spans",
    "load_chrome_trace": "repro.obs.export",
    "load_spans": "repro.obs.export",
    "load_spans_jsonl": "repro.obs.export",
    "phase_breakdown": "repro.obs.spans",
    "save_chrome_trace": "repro.obs.export",
    "save_spans_jsonl": "repro.obs.export",
    "slowest_spans": "repro.obs.spans",
    "spans_to_chrome": "repro.obs.export",
    "spans_to_jsonl": "repro.obs.export",
    "summarize_overhead": "repro.obs.profiling",
    "validate_spans": "repro.obs.spans",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
