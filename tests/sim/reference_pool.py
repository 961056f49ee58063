"""The PS pool as it was before re-armable timers: the tested reference.

:class:`HeapTimerPool` keeps its completion timer as a one-shot heap event
and moves it with ``cancel()`` + ``schedule()`` — one fresh sequence number
per move, one tombstone per cancel.  The production pool must put every
completion at the same instant, in the same place among simultaneous
events, as this one (``test_timer_equivalence.py``).  It is written for
reading, not speed: nothing is inlined.
"""

from heapq import heappop, heappush
from math import ulp

from repro.sim.resources import _EPS, _ULPS, ProcessorSharingResource


class HeapTimerPool(ProcessorSharingResource):
    """Completion timer on the event heap (the inherited Timer stays idle)."""

    def __init__(self, sim, name, servers, speed=1.0):
        super().__init__(sim, name, servers, speed)
        self._event = None
        self._event_key = None  # (head job seq, per-job rate) it was armed for

    def submit(self, job):
        self._advance()
        job.seq = self._seq
        self._seq += 1
        job.start_time = self.sim.now
        job.finish_vtime = self._vtime + job.demand
        heappush(self._heap, (job.finish_vtime, job.seq, job))
        self._njobs += 1
        self._reschedule()
        return job

    def _reschedule(self):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if not heap:
            if self._event is not None:
                self._event.cancel()
                self._event = None
                self._event_key = None
            return
        rate = self.per_job_rate()
        key = (heap[0][1], rate)
        if self._event is not None:
            if key == self._event_key:
                return
            self._event.cancel()
        remaining_v = heap[0][0] - self._vtime
        delay = remaining_v / rate if remaining_v > 0.0 else 0.0
        self._event = self.sim.schedule(delay, self._on_timer, "ps:reference")
        self._event_key = key

    def _on_timer(self):
        self._event = None
        self._advance()
        now = self.sim.now
        vtime = self._vtime
        drift = _ULPS * ulp(vtime)
        finished = []
        heap = self._heap
        while heap:
            head = heap[0][2]
            if head.cancelled:
                heappop(heap)
                continue
            if head.finish_vtime - vtime <= _EPS * (1.0 + head.demand) + drift:
                heappop(heap)
                finished.append(head)
                continue
            break
        if not finished:
            self._reschedule()
            return
        self._njobs -= len(finished)
        for job in finished:
            job.finish_time = now
            job.cancelled = True
            self._completed_demand += job.demand
        self._completed_jobs += len(finished)
        self._reschedule()
        for job in finished:
            if job.on_complete is not None:
                job.on_complete(job)
