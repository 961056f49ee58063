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

from repro.obs.live.hub import (
    DEFAULT_MAX_QUEUE,
    EVENT_TYPES,
    PROTOCOL_VERSION,
    LiveEvent,
    Subscription,
    TelemetryHub,
)
from repro.obs.live.publish import RunPublisher, run_start_data

__all__ = [
    "DEFAULT_MAX_QUEUE",
    "EVENT_TYPES",
    "PROTOCOL_VERSION",
    "LiveEvent",
    "LiveServer",
    "RunPublisher",
    "Subscription",
    "TelemetryHub",
    "run_start_data",
]


def __getattr__(name: str):
    if name == "LiveServer":
        from repro.obs.live.server import LiveServer

        return LiveServer
    raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
