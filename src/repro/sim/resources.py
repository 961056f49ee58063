"""Virtual-time processor-sharing resources.

The database server is modelled as a small set of multi-server
processor-sharing (PS) pools: a CPU pool (2 servers in the paper's xSeries
240) and a disk pool (17 servers).  With ``n`` jobs in service on a pool of
``m`` servers, every job progresses at::

    rate = speed * min(1, m / n) * efficiency

i.e. jobs run at full speed while there are idle servers and share equally
once the pool is saturated.  ``efficiency`` is an externally supplied
multiplier used by the overload model (:mod:`repro.dbms.overload`) to model
thrashing past the saturation knee.

Simulating PS naively costs O(n) per arrival/departure because every
remaining service time changes.  We instead integrate a per-pool *virtual
time* ``v(t)`` whose derivative is the common per-job rate.  A job arriving
with demand ``d`` then completes exactly when ``v`` reaches ``v_arrival + d``
— a constant — so completions live in an ordinary min-heap keyed by finish
virtual time, and every state change costs O(log n).

A pool keeps one clock (the instant ``v`` was last integrated to) and no
statistics beyond the jobs and demand it completed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf, ulp
from typing import Any, Callable, List, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import DEFAULT_PRIORITY

#: Relative tolerance used when deciding whether a job's finish virtual time
#: has been reached.  The completion slack for a head job is
#: ``_EPS * (1 + demand)`` — proportional to the job's own demand — plus a
#: few ulps of the current virtual time to absorb the integrator's
#: accumulation error.  (An *absolute* ``vtime * _EPS`` slack, as used
#: before, grows without bound on long runs and eventually completes jobs
#: with real demand remaining.)
_EPS = 1e-9

#: Integrator-error allowance in ulps of the current virtual time.
_ULPS = 16.0

#: Completion-heap entries: a job in service *is* its entry,
#: ``(finish_vtime, seq, demand, on_complete, owner)``.  Tuples compare at C
#: speed; seq is unique, so the fields after it never compare.
_JobEntry = Tuple[float, int, float, Callable[[Any], Any], Any]


class ProcessorSharingResource:
    """An egalitarian multi-server processor-sharing pool.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Pool name (used in event labels and traces).
    servers:
        Number of servers; with fewer jobs than servers every job runs at
        full speed.
    speed:
        Speed multiplier applied to every job (default 1.0).
    """

    def __init__(self, sim: Simulator, name: str, servers: int, speed: float = 1.0) -> None:
        if isinstance(servers, bool) or not isinstance(servers, int) or servers < 1:
            raise SimulationError(
                "resource {!r} needs an integer >= 1 of servers (got {!r})".format(name, servers)
            )
        if not 0 < speed < inf:  # also rejects NaN
            raise SimulationError(
                "resource {!r} needs a positive finite speed (got {})".format(name, speed)
            )
        self.sim = sim
        self.name = name
        self.servers = servers
        self.speed = float(speed)
        self._efficiency = 1.0
        self._vtime = 0.0
        self._vtime_updated_at = sim.now
        # Exactly the jobs in service: a cancel removes its entry, so the
        # heap holds no tombstones and its length is the job count.
        self._heap: List[_JobEntry] = []
        self._seq = 0
        self._timer = sim.timer(self._on_timer, "ps:{}:complete".format(name))
        # Head job seq and per-job rate the armed timer was computed for:
        # while both are unchanged the timer's absolute fire time is still
        # exact, so state changes that touch neither leave it alone.  The
        # seq is -1 (no job's) whenever the timer is not armed.  Every
        # change to the job count or the efficiency re-arms or keeps an
        # equal rate, so while a job is in service ``_rate`` *is* the
        # per-job rate, and the clock integrates by it; with no job in
        # service it is 0.0 and the clock stands still.
        self._timer_seq = -1
        self._rate = 0.0
        self._completed_jobs = 0
        self._completed_demand = 0.0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._heap)

    @property
    def efficiency(self) -> float:
        """Current externally supplied efficiency multiplier."""
        return self._efficiency

    @property
    def completed_jobs(self) -> int:
        """Total jobs that finished service on this pool."""
        return self._completed_jobs

    @property
    def completed_demand(self) -> float:
        """Total service demand (seconds-at-full-speed) completed."""
        return self._completed_demand

    def per_job_rate(self) -> float:
        """The rate at which every in-service job currently progresses."""
        njobs = len(self._heap)
        if njobs == 0:
            return self.speed * self._efficiency
        share = min(1.0, self.servers / njobs)
        return self.speed * share * self._efficiency

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def submit(self, demand: float, on_complete: Callable[[Any], Any], owner: Any = None) -> int:
        """Begin service for a job of ``demand`` seconds-at-full-speed now.

        When service finishes the pool calls ``on_complete(owner)``; the
        engine passes the query as ``owner``, so one bound method serves
        every job instead of a closure per job.  Returns the job's handle
        for :meth:`cancel` / :meth:`remaining_demand`, unique on this pool;
        every call is a new job, served once.

        PS has no waiting room: admission control lives above this layer (the
        Query Patroller / dispatcher decide *when* work reaches the pools).
        """
        # _advance(), _reschedule() and Timer.arm() inlined: submit is (with
        # _on_timer) one of the two hottest entry points in the simulator,
        # and the call round-trips are measurable at replication scale.  The
        # arithmetic must stay identical to the out-of-line twins, whose
        # rate expression is per_job_rate()'s with the share branched
        # (multiplying by an exact 1.0 preserves the other factors).
        if not 0.0 <= demand < inf:  # also rejects NaN
            raise SimulationError(
                "resource {!r} got a job of demand {}".format(self.name, demand)
            )
        sim = self.sim
        now = sim.now
        heap = self._heap
        if now != self._vtime_updated_at:
            self._vtime += (now - self._vtime_updated_at) * self._rate
            self._vtime_updated_at = now
        handle = self._seq
        self._seq = handle + 1
        heappush(heap, (self._vtime + demand, handle, demand, on_complete, owner))
        njobs = len(heap)
        if njobs <= self.servers:
            rate = self.speed * self._efficiency
        else:
            rate = self.speed * (self.servers / njobs) * self._efficiency
        head_vtime, head_seq, _, _, _ = heap[0]
        if head_seq != self._timer_seq or rate != self._rate:
            remaining_v = head_vtime - self._vtime
            seq = sim._seq
            self._timer._key = (
                now + (remaining_v / rate if remaining_v > 0.0 else 0.0),
                DEFAULT_PRIORITY,
                seq,
            )
            sim._seq = seq + 1
            self._timer_seq = head_seq
            self._rate = rate
        return handle

    def cancel(self, handle: int) -> bool:
        """Abort the job ``handle`` names; False if it is not in service here."""
        index = self._find(handle)
        if index < 0:
            return False
        self._advance()
        heap = self._heap
        last = heap.pop()
        if index < len(heap):
            heap[index] = last
            heapify(heap)
        self._reschedule()
        return True

    def remaining_demand(self, handle: int) -> float:
        """Service demand the job ``handle`` names still has to receive here
        (0 when it is not in service here)."""
        index = self._find(handle)
        if index < 0:
            return 0.0
        self._advance()
        return max(0.0, self._heap[index][0] - self._vtime)

    def set_efficiency(self, efficiency: float) -> None:
        """Install a new efficiency multiplier (from the overload model)."""
        if not 0.0 < efficiency < inf:  # also rejects NaN
            raise SimulationError(
                "resource {!r} efficiency must stay positive and finite (got {})".format(
                    self.name, efficiency
                )
            )
        if efficiency == self._efficiency:
            return
        # _advance() and _reschedule() inlined: over the saturation knee the
        # overload model re-applies efficiency about once per statement.  The
        # arithmetic must stay identical to the out-of-line twins.
        sim = self.sim
        now = sim.now
        heap = self._heap
        if now != self._vtime_updated_at:
            self._vtime += (now - self._vtime_updated_at) * self._rate
            self._vtime_updated_at = now
        self._efficiency = float(efficiency)
        if not heap:
            self._timer.cancel()
            self._timer_seq = -1
            return
        njobs = len(heap)
        if njobs <= self.servers:
            rate = self.speed * self._efficiency
        else:
            rate = self.speed * (self.servers / njobs) * self._efficiency
        head_vtime, head_seq, _, _, _ = heap[0]
        if head_seq != self._timer_seq or rate != self._rate:
            remaining_v = head_vtime - self._vtime
            seq = sim._seq
            self._timer._key = (
                now + (remaining_v / rate if remaining_v > 0.0 else 0.0),
                DEFAULT_PRIORITY,
                seq,
            )
            sim._seq = seq + 1
            self._timer_seq = head_seq
            self._rate = rate

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find(self, handle: int) -> int:
        """Heap index of the job ``handle`` names, -1 if none (a scan)."""
        for index, entry in enumerate(self._heap):
            if entry[1] == handle:
                return index
        return -1

    def _advance(self) -> None:
        """Integrate virtual time up to the current instant.

        The per-job rate is the one the last re-arm stored (0.0 with no job
        in service); several state changes in one event cascade share a
        timestamp and integrate once.
        """
        now = self.sim.now
        if now != self._vtime_updated_at:
            self._vtime += (now - self._vtime_updated_at) * self._rate
            self._vtime_updated_at = now

    def _reschedule(self) -> None:
        """(Re-)arm the completion timer for the earliest-finishing job.

        Left alone when the head job and the per-job rate are both
        unchanged: the armed fire time is then still the head's exact
        completion instant, and not re-arming keeps the sequence number
        (hence the place among simultaneous events) it already holds.
        """
        heap = self._heap
        if not heap:
            self._timer.cancel()
            self._timer_seq = -1
            self._rate = 0.0
            return
        njobs = len(heap)
        if njobs <= self.servers:
            rate = self.speed * self._efficiency
        else:
            rate = self.speed * (self.servers / njobs) * self._efficiency
        head_vtime, head_seq, _, _, _ = heap[0]
        if head_seq != self._timer_seq or rate != self._rate:
            # Timer.arm() inlined, as in submit().
            sim = self.sim
            remaining_v = head_vtime - self._vtime
            seq = sim._seq
            self._timer._key = (
                sim.now + (remaining_v / rate if remaining_v > 0.0 else 0.0),
                DEFAULT_PRIORITY,
                seq,
            )
            sim._seq = seq + 1
            self._timer_seq = head_seq
            self._rate = rate

    def _on_timer(self) -> None:
        self._timer_seq = -1  # fired, so no longer armed
        # _advance() inlined (see submit() for why; arithmetic must stay
        # identical to the out-of-line twin).
        sim = self.sim
        now = sim.now
        heap = self._heap
        if now != self._vtime_updated_at:
            self._vtime += (now - self._vtime_updated_at) * self._rate
            self._vtime_updated_at = now
        vtime = self._vtime
        drift = _ULPS * ulp(vtime)
        # The timer is armed only while a job is in service, and nearly
        # every firing completes exactly that head job, held in `first`;
        # only simultaneous completions allocate anything for `rest`.
        first = heap[0]
        if first[0] - vtime > _EPS * (1.0 + first[2]) + drift:
            # Spurious wake-up (e.g. rate changed); just re-arm.
            self._reschedule()
            return
        heappop(heap)
        self._completed_demand += first[2]
        rest: Tuple[_JobEntry, ...] = ()
        while heap and heap[0][0] - vtime <= _EPS * (1.0 + heap[0][2]) + drift:
            entry = heappop(heap)
            self._completed_demand += entry[2]
            rest += (entry,)
        self._completed_jobs += 1 + len(rest)
        # Re-arm before invoking callbacks: callbacks may submit new work.
        # (_reschedule() and Timer.arm() inlined; the firing already
        # disarmed the timer.)
        if heap:
            njobs = len(heap)
            if njobs <= self.servers:
                rate = self.speed * self._efficiency
            else:
                rate = self.speed * (self.servers / njobs) * self._efficiency
            head_vtime, head_seq, _, _, _ = heap[0]
            remaining_v = head_vtime - vtime
            seq = sim._seq
            self._timer._key = (
                now + (remaining_v / rate if remaining_v > 0.0 else 0.0),
                DEFAULT_PRIORITY,
                seq,
            )
            sim._seq = seq + 1
            self._timer_seq = head_seq
            self._rate = rate
        else:
            self._rate = 0.0
        first[3](first[4])
        for entry in rest:
            entry[3](entry[4])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ProcessorSharingResource({!r}, servers={}, jobs={})".format(
            self.name, self.servers, len(self._heap)
        )
