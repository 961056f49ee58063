"""Live telemetry streaming: hub, publishers, and the embedded dashboard.

``repro.obs.live`` turns a running experiment into a push-based stream:

* :class:`~repro.obs.live.hub.TelemetryHub` — the thread-safe event bus
  with the versioned JSON snapshot/delta protocol;
* :class:`~repro.obs.live.publish.RunPublisher` — bridges one
  deployment's instruments (plan listeners, collector, tracer) onto the
  hub;
* :class:`~repro.obs.live.server.LiveServer` — the stdlib-only HTTP
  layer (``/api/snapshot``, ``/events`` SSE, ``/metrics``, and the
  single-file dashboard at ``/``); ``http.server`` loads on first access.

The whole package imports bare — no dependency beyond the standard
library — and attaching a hub to a run is observation-only: results are
bit-identical with or without it.
"""

from repro import lazy_exports

_EXPORTS = {
    "DEFAULT_MAX_QUEUE": "repro.obs.live.hub",
    "EVENT_TYPES": "repro.obs.live.hub",
    "PROTOCOL_VERSION": "repro.obs.live.hub",
    "LiveEvent": "repro.obs.live.hub",
    "LiveServer": "repro.obs.live.server",
    "RunPublisher": "repro.obs.live.publish",
    "Subscription": "repro.obs.live.hub",
    "TelemetryHub": "repro.obs.live.hub",
    "run_start_data": "repro.obs.live.publish",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
