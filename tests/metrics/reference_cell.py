"""Completion by completion: the tested reference for the folding collector.

:class:`EagerCollector` is ``MetricsCollector`` as it was before cells
folded in blocks: every completion asks the schedule for its period and is
folded into its cell's four full accumulators and histogram on the spot;
the cell reports each accumulator's mean under the metric's name.  The
production collector must report exactly the same numbers at any point
(``test_collector.py``).  Written for reading, not speed.
"""

from repro.metrics.collector import (
    _RT_HISTOGRAM_BINS,
    _RT_HISTOGRAM_RANGE,
    MetricsCollector,
)
from repro.sim.stats import Histogram
from tests.sim.reference_stats import EagerWelford, histogram_add


def _mean(name):
    return property(lambda cell: cell.accumulators[name].mean)


class EagerCell:
    velocity = _mean("velocity")
    response_time = _mean("response_time")
    execution_time = _mean("execution_time")
    wait_time = _mean("wait_time")

    def __init__(self):
        self.completions = 0
        self.accumulators = {
            name: EagerWelford()
            for name in ("velocity", "response_time", "execution_time", "wait_time")
        }
        self.response_histogram = Histogram(*_RT_HISTOGRAM_RANGE, bins=_RT_HISTOGRAM_BINS)

    def add(self, query):
        self.completions += 1
        response, execution = query.response_time, query.execution_time
        self.accumulators["velocity"].add(query.velocity)
        self.accumulators["response_time"].add(response)
        self.accumulators["execution_time"].add(execution)
        self.accumulators["wait_time"].add(response - execution)
        histogram_add(self.response_histogram, response)

    def response_percentile(self, q):
        return self.response_histogram.percentile(q)


class EagerCollector(MetricsCollector):
    def on_completion(self, query):
        period = self.schedule.period_at(query.finish_time)
        if period != self._open_period:
            self._open_period = max(period, self._open_period)
            self._closed_tally.clear()
        cell = self._cells.setdefault((period, query.class_name), EagerCell())
        cell.add(query)
        self._total_completions += 1
        totals = self._class_completions
        totals[query.class_name] = totals.get(query.class_name, 0) + 1
