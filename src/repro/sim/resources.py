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
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import ulp
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator

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

#: Completion-heap entries: ``(finish_vtime, seq, job)`` tuples compare at
#: C speed; seq is unique so the job object itself never compares.
_JobEntry = Tuple[float, int, "PSJob"]


class PSJob:
    """One unit of work in service on a :class:`ProcessorSharingResource`.

    Parameters
    ----------
    name:
        Diagnostic label.
    demand:
        Service demand in seconds-at-full-speed.  Must be non-negative.
    on_complete:
        Called with ``owner`` (the job itself if none) when service finishes.
    owner:
        Whatever the submitter wants back in ``on_complete`` (the engine
        passes the query), so one bound method can serve every job instead
        of a closure per job.

    A job is served once: ``seq`` is -1 until a pool takes it.
    """

    __slots__ = (
        "name",
        "demand",
        "on_complete",
        "owner",
        "finish_vtime",
        "seq",
        "cancelled",
        "start_time",
        "finish_time",
    )

    def __init__(
        self,
        name: str,
        demand: float,
        on_complete: Optional[Callable[["PSJob"], None]] = None,
        owner: Any = None,
    ) -> None:
        if demand < 0:
            raise SimulationError("PSJob {!r} has negative demand {}".format(name, demand))
        self.name = name
        self.demand = float(demand)
        self.on_complete = on_complete
        self.owner = owner
        self.finish_vtime = 0.0
        self.seq = -1
        self.cancelled = False
        self.start_time = 0.0
        self.finish_time: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PSJob({!r}, demand={:.6f})".format(self.name, self.demand)


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
        if servers < 1:
            raise SimulationError("resource {!r} needs >= 1 server".format(name))
        if speed <= 0:
            raise SimulationError("resource {!r} needs positive speed".format(name))
        self.sim = sim
        self.name = name
        self.servers = int(servers)
        self.speed = float(speed)
        self._efficiency = 1.0
        self._vtime = 0.0
        self._vtime_updated_at = sim.now
        self._heap: List[_JobEntry] = []
        self._njobs = 0
        self._seq = 0
        self._timer = sim.timer(self._on_timer, "ps:{}:complete".format(name))
        # Head job seq and per-job rate the armed timer was computed for:
        # while both are unchanged the timer's absolute fire time is still
        # exact, so state changes that touch neither leave it alone.  The
        # seq is -1 (no job's) whenever the timer is not armed.
        self._timer_seq = -1
        self._timer_rate = 0.0
        # Statistics.
        self._start_time = sim.now
        self._completed_jobs = 0
        self._completed_demand = 0.0
        self._busy_integral = 0.0  # integral of min(njobs, servers) over time
        self._jobs_integral = 0.0  # integral of njobs over time
        self._last_stat_time = sim.now

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return self._njobs

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
        if self._njobs == 0:
            return self.speed * self._efficiency
        share = min(1.0, self.servers / self._njobs)
        return self.speed * share * self._efficiency

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Average fraction of servers busy since this resource was built.

        ``horizon``, when given, is the averaging window length measured
        from the resource's construction time; it may extend *past* the
        current instant (idle tail included in the average) but never fall
        short of it — busy time is integrated up to ``sim.now``, so a
        shorter window would report utilization above 1.0.  A stale
        horizon raises :class:`~repro.errors.SimulationError`.
        """
        self._accumulate_stats()
        elapsed = self.sim.now - self._start_time
        if horizon is not None:
            if horizon < elapsed:
                raise SimulationError(
                    "stale horizon {} for resource {!r}: busy time is "
                    "integrated over {} seconds already".format(
                        horizon, self.name, elapsed
                    )
                )
            elapsed = horizon
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.servers)

    def mean_jobs_in_service(self) -> float:
        """Time-averaged number of jobs in service since construction."""
        self._accumulate_stats()
        elapsed = self.sim.now - self._start_time
        if elapsed <= 0:
            return 0.0
        return self._jobs_integral / elapsed

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def submit(self, job: PSJob) -> PSJob:
        """Begin service for ``job`` immediately.

        PS has no waiting room: admission control lives above this layer (the
        Query Patroller / dispatcher decide *when* work reaches the pools).
        """
        # _advance() and _reschedule() inlined: submit is (with _on_timer)
        # one of the two hottest entry points in the simulator, and the two
        # call round-trips are measurable at replication scale.  The
        # arithmetic must stay identical to the out-of-line twins.
        if job.seq != -1:
            raise SimulationError("{!r} submitted twice".format(job))
        now = self.sim.now
        if now != self._vtime_updated_at or now != self._last_stat_time:
            njobs = self._njobs
            dt = now - self._last_stat_time
            if dt > 0:
                busy = njobs if njobs < self.servers else self.servers
                self._busy_integral += busy * dt
                self._jobs_integral += njobs * dt
                self._last_stat_time = now
            dt = now - self._vtime_updated_at
            if dt > 0 and njobs > 0:
                if njobs <= self.servers:
                    self._vtime += dt * (self.speed * self._efficiency)
                else:
                    self._vtime += dt * (self.speed * (self.servers / njobs) * self._efficiency)
            self._vtime_updated_at = now
        seq = self._seq
        self._seq = seq + 1
        job.seq = seq
        job.start_time = now
        finish = self._vtime + job.demand
        job.finish_vtime = finish
        heap = self._heap
        heappush(heap, (finish, seq, job))
        njobs = self._njobs + 1
        self._njobs = njobs
        # Inline _reschedule().
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if njobs <= self.servers:
            rate = self.speed * self._efficiency
        else:
            rate = self.speed * (self.servers / njobs) * self._efficiency
        if rate <= 0:  # pragma: no cover - efficiency is validated positive
            raise SimulationError("resource {!r} stalled at rate 0".format(self.name))
        head_vtime, head_seq, _ = heap[0]
        if head_seq != self._timer_seq or rate != self._timer_rate:
            remaining_v = head_vtime - self._vtime
            self._timer.arm(remaining_v / rate if remaining_v > 0.0 else 0.0)
            self._timer_seq = head_seq
            self._timer_rate = rate
        return job

    def cancel(self, job: PSJob) -> bool:
        """Abort a job in service here; False if done, cancelled or not ours."""
        if not self._holds(job):
            return False
        self._advance()
        job.cancelled = True
        self._njobs -= 1
        self._reschedule()
        return True

    def remaining_demand(self, job: PSJob) -> float:
        """Service demand the job still has to receive here (0 when done)."""
        if not self._holds(job):
            return 0.0
        self._advance()
        return max(0.0, job.finish_vtime - self._vtime)

    def set_efficiency(self, efficiency: float) -> None:
        """Install a new efficiency multiplier (from the overload model)."""
        if efficiency <= 0:
            raise SimulationError(
                "resource {!r} efficiency must stay positive (got {})".format(
                    self.name, efficiency
                )
            )
        if efficiency == self._efficiency:
            return
        self._advance()
        self._efficiency = float(efficiency)
        self._reschedule()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _holds(self, job: PSJob) -> bool:
        """Whether ``job`` is in service on this pool (a heap scan)."""
        return not job.cancelled and any(entry[2] is job for entry in self._heap)

    def _accumulate_stats(self) -> None:
        now = self.sim.now
        dt = now - self._last_stat_time
        if dt > 0:
            njobs = self._njobs
            busy = njobs if njobs < self.servers else self.servers
            self._busy_integral += busy * dt
            self._jobs_integral += njobs * dt
            self._last_stat_time = now

    def _advance(self) -> None:
        """Integrate virtual time and statistics up to the current instant."""
        now = self.sim.now
        if now == self._vtime_updated_at and now == self._last_stat_time:
            # Already integrated to this instant (several state changes in
            # one event cascade share a timestamp).
            return
        njobs = self._njobs
        dt = now - self._last_stat_time
        if dt > 0:
            busy = njobs if njobs < self.servers else self.servers
            self._busy_integral += busy * dt
            self._jobs_integral += njobs * dt
            self._last_stat_time = now
        dt = now - self._vtime_updated_at
        if dt > 0 and njobs > 0:
            # Inline per_job_rate(): this integrator is the hottest code
            # in the simulator (expression order is load-bearing for
            # bit-reproducibility — keep it identical to per_job_rate,
            # including the branched share: multiplying by an exact 1.0
            # preserves the other factors bit-for-bit).
            if njobs <= self.servers:
                self._vtime += dt * (self.speed * self._efficiency)
            else:
                self._vtime += dt * (self.speed * (self.servers / njobs) * self._efficiency)
        self._vtime_updated_at = now

    def _reschedule(self) -> None:
        """(Re-)arm the completion timer for the earliest-finishing job.

        Left alone when the head job and the per-job rate are both
        unchanged: the armed fire time is then still the head's exact
        completion instant, and not re-arming keeps the sequence number
        (hence the place among simultaneous events) it already holds.
        """
        # Drop tombstones so the heap head is a live job.
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if not heap:
            self._timer.cancel()
            self._timer_seq = -1
            return
        njobs = self._njobs
        if njobs <= self.servers:
            rate = self.speed * self._efficiency
        else:
            rate = self.speed * (self.servers / njobs) * self._efficiency
        if rate <= 0:  # pragma: no cover - efficiency is validated positive
            raise SimulationError("resource {!r} stalled at rate 0".format(self.name))
        head_vtime, head_seq, _ = heap[0]
        if head_seq != self._timer_seq or rate != self._timer_rate:
            remaining_v = head_vtime - self._vtime
            self._timer.arm(remaining_v / rate if remaining_v > 0.0 else 0.0)
            self._timer_seq = head_seq
            self._timer_rate = rate

    def _on_timer(self) -> None:
        self._timer_seq = -1  # fired, so no longer armed
        # _advance() inlined (see submit() for why; arithmetic must stay
        # identical to the out-of-line twin).
        now = self.sim.now
        if now != self._vtime_updated_at or now != self._last_stat_time:
            njobs = self._njobs
            dt = now - self._last_stat_time
            if dt > 0:
                busy = njobs if njobs < self.servers else self.servers
                self._busy_integral += busy * dt
                self._jobs_integral += njobs * dt
                self._last_stat_time = now
            dt = now - self._vtime_updated_at
            if dt > 0 and njobs > 0:
                if njobs <= self.servers:
                    self._vtime += dt * (self.speed * self._efficiency)
                else:
                    self._vtime += dt * (self.speed * (self.servers / njobs) * self._efficiency)
            self._vtime_updated_at = now
        vtime = self._vtime
        drift = _ULPS * ulp(vtime)
        # Nearly every firing completes exactly one job, held in `first`;
        # only simultaneous completions allocate anything for `rest`.
        first: Optional[PSJob] = None
        rest: Tuple[PSJob, ...] = ()
        heap = self._heap
        while heap:
            finish_vtime, _, head = heap[0]
            if head.cancelled:
                heappop(heap)
            elif finish_vtime - vtime <= _EPS * (1.0 + head.demand) + drift:
                heappop(heap)
                head.finish_time = now
                head.cancelled = True  # block late cancel() calls
                self._completed_demand += head.demand
                if first is None:
                    first = head
                else:
                    rest += (head,)
            else:
                break
        if first is None:
            # Spurious wake-up (e.g. rate changed); just re-arm.
            self._reschedule()
            return
        njobs = self._njobs - 1 - len(rest)
        self._njobs = njobs
        self._completed_jobs += 1 + len(rest)
        # Re-arm before invoking callbacks: callbacks may submit new work.
        # (_reschedule() inlined; the loop above left a live job at the
        # heap head, and the firing already disarmed the timer.)
        if heap:
            if njobs <= self.servers:
                rate = self.speed * self._efficiency
            else:
                rate = self.speed * (self.servers / njobs) * self._efficiency
            if rate <= 0:  # pragma: no cover - efficiency is validated positive
                raise SimulationError("resource {!r} stalled at rate 0".format(self.name))
            remaining_v = heap[0][0] - vtime
            self._timer.arm(remaining_v / rate if remaining_v > 0.0 else 0.0)
            self._timer_seq = heap[0][1]
            self._timer_rate = rate
        if first.on_complete is not None:
            first.on_complete(first if first.owner is None else first.owner)
        for job in rest:
            if job.on_complete is not None:
                job.on_complete(job if job.owner is None else job.owner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ProcessorSharingResource({!r}, servers={}, jobs={})".format(
            self.name, self.servers, self._njobs
        )
