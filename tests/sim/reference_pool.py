"""The PS pool as it was before re-armable timers: the tested reference.

:class:`HeapTimerPool` keeps its completion timer as a one-shot heap event
and moves it with ``cancel()`` + ``schedule()`` — one fresh sequence number
per move, one tombstone per cancel — and a cancelled job stays on the
pool's own heap as a tombstone until it reaches the head.  The production
pool must put every completion at the same instant, in the same place among
simultaneous events, as this one (``test_timer_equivalence.py``).  It
shares nothing with the production pool but the two completion tolerances
and is written for reading, not speed: nothing is inlined.
"""

from heapq import heappop, heappush
from math import ulp

from repro.sim.resources import _EPS, _ULPS


class Job:
    """One submitted job; the record outlives its heap entry."""

    def __init__(self, demand, on_complete, owner, finish_vtime):
        self.demand = demand
        self.on_complete = on_complete
        self.owner = owner
        self.finish_vtime = finish_vtime
        self.done = False  # finished or cancelled: a tombstone on the heap


class HeapTimerPool:
    """Same handle API and accounting as ``ProcessorSharingResource``."""

    def __init__(self, sim, name, servers, speed=1.0):
        self.sim = sim
        self.name = name
        self.servers = servers
        self.speed = speed
        self.efficiency = 1.0
        self.vtime = 0.0
        self.updated_at = sim.now  # the instant vtime was integrated to
        self.jobs = {}  # handle -> Job, every job ever submitted
        self.heap = []  # (finish_vtime, handle, Job), tombstones included
        self.active_jobs = 0
        self.completed_jobs = 0
        self.completed_demand = 0.0
        self.event = None
        self.event_key = None  # (head handle, per-job rate) it was armed for

    def per_job_rate(self):
        share = min(1.0, self.servers / self.active_jobs) if self.active_jobs else 1.0
        return self.speed * share * self.efficiency

    def advance(self):
        """Integrate virtual time up to the current instant."""
        dt = self.sim.now - self.updated_at
        if dt > 0 and self.active_jobs:
            self.vtime += dt * self.per_job_rate()
        self.updated_at = self.sim.now

    def submit(self, demand, on_complete, owner=None):
        self.advance()
        handle = len(self.jobs)
        job = Job(demand, on_complete, owner, self.vtime + demand)
        self.jobs[handle] = job
        heappush(self.heap, (job.finish_vtime, handle, job))
        self.active_jobs += 1
        self.reschedule()
        return handle

    def cancel(self, handle):
        job = self.jobs.get(handle)
        if job is None or job.done:
            return False
        self.advance()
        job.done = True
        self.active_jobs -= 1
        self.reschedule()
        return True

    def set_efficiency(self, efficiency):
        if efficiency == self.efficiency:
            return
        self.advance()
        self.efficiency = efficiency
        self.reschedule()

    def reschedule(self):
        heap = self.heap
        while heap and heap[0][2].done:
            heappop(heap)
        if not heap:
            if self.event is not None:
                self.event.cancel()
                self.event = None
                self.event_key = None
            return
        rate = self.per_job_rate()
        key = (heap[0][1], rate)
        if self.event is not None:
            if key == self.event_key:
                return
            self.event.cancel()
        remaining_v = heap[0][0] - self.vtime
        delay = remaining_v / rate if remaining_v > 0.0 else 0.0
        self.event = self.sim.schedule(delay, self.on_timer, "ps:reference")
        self.event_key = key

    def on_timer(self):
        self.event = None
        self.advance()
        vtime = self.vtime
        drift = _ULPS * ulp(vtime)
        finished = []
        heap = self.heap
        while heap:
            head = heap[0][2]
            if head.done:
                heappop(heap)
                continue
            if head.finish_vtime - vtime <= _EPS * (1.0 + head.demand) + drift:
                heappop(heap)
                finished.append(head)
                continue
            break
        if not finished:
            self.reschedule()
            return
        self.active_jobs -= len(finished)
        for job in finished:
            job.done = True
            self.completed_demand += job.demand
        self.completed_jobs += len(finished)
        self.reschedule()
        for job in finished:
            job.on_complete(job.owner)
