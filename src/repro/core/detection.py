"""Workload detection.

Section 2: "We view workload adaptation in general as consisting of two
processes, workload detection and workload control.  Workload detection
identifies workload changes by monitoring and characterizing current
workloads and predicting future workload trends."

The prototype evaluated in the paper re-plans on a fixed interval, so
detection is implicit.  This module makes it explicit (and ablatable):

:class:`WorkloadDetector` measures each class's arrival rate over bucketed
windows, compares the latest bucket against an exponentially weighted
baseline per class and fires *shift* callbacks when intensity changes by
more than :data:`SHIFT_FACTOR`.  Wired to the planner's early-trigger hook,
a detected shift cuts the worst-case reaction latency from a full control
interval to one detection bucket.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.core.service_class import ServiceClass
from repro.dbms.query import Query
from repro.errors import ConfigurationError
from repro.runtime import TimerService

#: Width (seconds) of one observation bucket.
BUCKET_SECONDS = 10.0
#: Weight of the newest bucket in a class's baseline rate.
EWMA_ALPHA = 0.3
#: A shift fires when the observed rate leaves
#: ``[baseline / SHIFT_FACTOR, baseline * SHIFT_FACTOR]``.
SHIFT_FACTOR = 1.4
#: Buckets observed before any shift may fire (baseline settling).
WARMUP_BUCKETS = 2
#: Minimum seconds between two fired shifts (rate-limits early re-plans).
MIN_SHIFT_GAP = 20.0


class ShiftEvent(NamedTuple):
    """A detected intensity change for one class."""

    class_name: str
    time: float
    baseline_rate: float
    observed_rate: float

    @property
    def factor(self) -> float:
        """Observed over baseline rate (guards a zero baseline)."""
        if self.baseline_rate <= 0:
            return float("inf") if self.observed_rate > 0 else 1.0
        return self.observed_rate / self.baseline_rate


ShiftListener = Callable[[ShiftEvent], None]


class WorkloadDetector:
    """Bucketed arrival-rate change detector with an EWMA baseline over the
    ``classes`` it characterises; buckets close on ``sim``'s events."""

    def __init__(self, sim: TimerService, classes: Sequence[ServiceClass]) -> None:
        self.sim = sim
        self._class_names = [c.name for c in classes]
        self._arrivals: Dict[str, int] = {name: 0 for name in self._class_names}
        self._baseline: Dict[str, Optional[float]] = {
            name: None for name in self._class_names
        }
        self._buckets_seen = 0
        self._bucket_start = sim.now
        self._last_shift_at = -float("inf")
        self._listeners: List[ShiftListener] = []
        self.shifts: List[ShiftEvent] = []
        self._started = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_shift_listener(self, listener: ShiftListener) -> None:
        """Subscribe to detected workload shifts."""
        self._listeners.append(listener)

    def observe(self, query: Query) -> None:
        """Submit-path hook: record one arrival."""
        if query.class_name not in self._arrivals:
            return
        self._arrivals[query.class_name] += 1

    def start(self) -> None:
        """Begin closing buckets on schedule."""
        if self._started:
            raise ConfigurationError("WorkloadDetector started twice")
        self._started = True
        self._bucket_start = self.sim.now
        self.sim.schedule(BUCKET_SECONDS, self._close_bucket, label="detector:bucket")

    def register_instruments(self, registry: "MetricsRegistry") -> None:  # noqa: F821
        """Publish the detector's live counters into a registry."""
        registry.counter(
            "detection_shifts_total",
            description="Workload intensity shifts detected",
            callback=lambda: len(self.shifts),
        )
        registry.counter(
            "detection_buckets_total",
            description="Detection buckets closed",
            callback=lambda: self._buckets_seen,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def baseline_rate(self, class_name: str) -> Optional[float]:
        """Current EWMA arrival-rate baseline for a class."""
        return self._baseline.get(class_name)

    @property
    def buckets_seen(self) -> int:
        """Buckets closed so far."""
        return self._buckets_seen

    # ------------------------------------------------------------------
    # Bucket lifecycle
    # ------------------------------------------------------------------
    def _close_bucket(self) -> None:
        now = self.sim.now
        span = max(now - self._bucket_start, 1e-9)
        self._buckets_seen += 1
        for name in self._class_names:
            rate = self._arrivals[name] / span
            self._maybe_fire(name, rate, now)
            baseline = self._baseline[name]
            if baseline is None:
                self._baseline[name] = rate
            else:
                self._baseline[name] = EWMA_ALPHA * rate + (1 - EWMA_ALPHA) * baseline
            self._arrivals[name] = 0
        self._bucket_start = now
        self.sim.schedule(BUCKET_SECONDS, self._close_bucket, label="detector:bucket")

    def _maybe_fire(self, name: str, rate: float, now: float) -> None:
        baseline = self._baseline[name]
        if baseline is None or self._buckets_seen <= WARMUP_BUCKETS:
            return
        if now - self._last_shift_at < MIN_SHIFT_GAP:
            return
        if baseline <= 0 and rate <= 0:
            return
        shifted_up = rate > baseline * SHIFT_FACTOR
        shifted_down = rate < baseline / SHIFT_FACTOR
        if not (shifted_up or shifted_down):
            return
        event = ShiftEvent(
            class_name=name, time=now, baseline_rate=baseline, observed_rate=rate
        )
        self._last_shift_at = now
        self.shifts.append(event)
        for listener in self._listeners:
            listener(event)
