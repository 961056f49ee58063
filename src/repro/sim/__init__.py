"""Discrete-event simulation kernel.

This subpackage is the bottom-most substrate: a deterministic event loop
(:class:`~repro.sim.engine.Simulator` — a heap for one-shot events,
re-armable timers for the PS pools), named reproducible random
streams (:class:`~repro.sim.rng.RandomStreams`), virtual-time processor-sharing
resources (:class:`~repro.sim.resources.ProcessorSharingResource`), and online
statistics helpers used throughout the higher layers.
"""

from repro import lazy_exports

_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "Event": "repro.sim.events",
    "Timer": "repro.sim.events",
    "ProcessorSharingResource": "repro.sim.resources",
    "RandomStreams": "repro.sim.rng",
    "WelfordAccumulator": "repro.sim.stats",
    "SlidingWindow": "repro.sim.stats",
    "Histogram": "repro.sim.stats",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
