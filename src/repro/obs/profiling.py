"""Controller self-profiling: what the control loop itself costs.

The paper controls OLTP *indirectly* because per-query interception
overhead would exceed sub-second run times — an overhead argument the
original prototype never measures about itself.  This module measures it
for our controller: real wall-clock (``time.perf_counter``) spent in the
monitor / solver / dispatcher work of each control interval, kept strictly
separate from simulation time (sim time is virtual and free; wall time is
what a production deployment of this controller would actually burn).

:class:`IntervalProfiler` is deliberately tiny — ``begin()``, a
``section(name)`` context manager per timed stage, ``finish()`` — so the
planner can wrap its existing stages without restructuring.  Per-interval
results are dicts of ``<section>_s`` wall-second entries plus ``total_s``;
:func:`summarize_overhead` aggregates them to mean/max per section for the
``repro trace --summary`` overhead line and the telemetry export
(:meth:`TelemetryStore.overhead_summary
<repro.metrics.telemetry.TelemetryStore.overhead_summary>`).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import SimulationError

#: Key suffix for per-section wall-clock seconds.
_SUFFIX = "_s"


class IntervalProfiler:
    """Wall-clock profiler for one recurring unit of controller work.

    Parameters
    ----------
    clock:
        Monotonic wall-clock source, a ``() -> float`` callable returning
        seconds; injectable for deterministic tests.  Defaults to
        :func:`time.perf_counter`.  All profiler time reads go exclusively
        through this clock, never through a simulator.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._current: Optional[Dict[str, float]] = None
        self._started_at = 0.0

    def begin(self) -> None:
        """Start timing one interval's work."""
        if self._current is not None:
            raise SimulationError("profiler interval begun twice")
        self._current = {}
        self._started_at = self.clock()

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time one named stage of the current interval.

        Re-entered sections accumulate (an early-triggered re-plan inside
        the same interval adds to the same key).  The key is interned: every
        interval's dict shares one string per section.
        """
        if self._current is None:
            raise SimulationError(
                "profiler section {!r} outside begin()/finish()".format(name)
            )
        key = sys.intern(name + _SUFFIX)
        start = self.clock()
        try:
            yield
        finally:
            self._current[key] = self._current.get(key, 0.0) + (self.clock() - start)

    def finish(self) -> Dict[str, float]:
        """Close the interval; returns its ``{section_s: wall_seconds}``.

        The returned dict always carries ``total_s`` — the whole
        begin-to-finish wall time, bounding every section.
        """
        if self._current is None:
            raise SimulationError("profiler finish() without begin()")
        record = self._current
        self._current = None
        record["total_s"] = self.clock() - self._started_at
        return record


def summarize_overhead(
    records: List[Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Aggregate per-interval overhead dicts to mean/max/count per key.

    Accepts any iterable of ``{key: wall_seconds}`` dicts (the ``overhead``
    sections of telemetry records) and skips keys absent from a record
    rather than counting them as zero.
    """
    sums: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in records:
        for key, value in record.items():
            sums[key] = sums.get(key, 0.0) + value
            maxima[key] = max(maxima.get(key, value), value)
            counts[key] = counts.get(key, 0) + 1
    return {
        key: {
            "mean_s": sums[key] / counts[key],
            "max_s": maxima[key],
            "count": counts[key],
        }
        for key in sums
    }
