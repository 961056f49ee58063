"""Discrete-event simulation kernel.

This subpackage is the bottom-most substrate: a deterministic event loop
(:class:`~repro.sim.engine.Simulator` — a heap for one-shot events,
re-armable timers for the PS pools), named reproducible random
streams (:class:`~repro.sim.rng.RandomStreams`), virtual-time processor-sharing
resources (:class:`~repro.sim.resources.ProcessorSharingResource`), and online
statistics helpers used throughout the higher layers.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timer
from repro.sim.resources import ProcessorSharingResource
from repro.sim.rng import RandomStreams
from repro.sim.stats import (
    Histogram,
    SlidingWindow,
    TimeWeightedValue,
    WelfordAccumulator,
)

__all__ = [
    "Simulator",
    "Event",
    "Timer",
    "ProcessorSharingResource",
    "RandomStreams",
    "WelfordAccumulator",
    "SlidingWindow",
    "TimeWeightedValue",
    "Histogram",
]
