"""Host-speed calibration: how fast is this host *right now*?

The sandbox this benchmark runs on has slow phases that last from a
fraction of a second to minutes and stretch deterministic
single-threaded Python work by 30-80 % (CPU time stretches with wall
time, so it is the host that is slower, not the process that waits).  No
run length the time cap allows averages that out: ten 28 s runs of one
workload measured raw best-of-run ``queries / wall`` between 16.5k and
26.5k per second.

Two things are done about it.  All times are CPU seconds of the
single-threaded child (``time.process_time``): when the host takes the
virtual CPU away altogether — in the worst phases seen the process ran
43 % of the time — wall time stops meaning anything, while CPU time
equals wall time on a quiet host.  And every host-time metric is
reported in *reference seconds*: a measured time is divided by the
host's speed factor over that time, sampled with a fixed kernel.  A factor of 1.0 means the kernel took its time on a
quiet run of the sandbox; 1.4 means the host is running 1.4x slower
right now.  The kernels touch no code of the measured package, so a
change to the package cannot move them.

Phases can flip every second or so, which samples taken only before and
after a 5 s repeat miss (they made things worse than raw time then), so
the harness samples *during* a repeat too: it advances the simulation in
slices of about 0.2 s of wall time and runs the kernel once between
slices (measure.py, ``Probe``).

How much a slow phase stretches work depends on the work's footprint.
In the same phases a tight loop over 64 objects measured 1.77x, the same
event loop over 500 / 4,000 / 16,000 live jobs 1.70x / 1.57x / 1.47x,
module import 1.26x, and the simulator itself 1.40-1.46x.  Hence:

* :class:`SpeedKernel` for simulation time — a miniature closed-loop
  event simulation (heap of timers, closures, slotted jobs, a dict of
  live jobs, Welford cells) with :data:`KERNEL_JOBS` jobs in flight, the
  size at which it stretches about as the simulator does;
* :func:`import_kernel` for set-up time, which is nearly all ``import``
  — unmarshal and execute the module code of a few standard-library
  modules into throw-away namespaces.
"""

from __future__ import annotations

import heapq
import importlib.util
import marshal
import statistics
import time

#: Kernel wall times on a quiet sandbox run (they define "reference speed").
SPEED_REFERENCE_S = 0.0185
IMPORT_REFERENCE_S = 0.0473

#: Jobs in flight in the speed kernel (its working set, about 6 MB) and
#: events fired per sample.
KERNEL_JOBS = 16_000
KERNEL_STEPS = 6_000

#: Import-kernel runs per calibration; the median resists short spikes.
IMPORT_SAMPLES = 5

_IMPORT_MODULES = (
    "argparse", "difflib", "_pydecimal", "pstats", "tempfile",
    "subprocess", "statistics", "dataclasses", "typing",
)
_IMPORT_PASSES = 6


class _Job:
    __slots__ = ("ident", "demand", "started", "on_done", "owner")

    def __init__(self, ident, demand, started, on_done, owner) -> None:
        self.ident = ident
        self.demand = demand
        self.started = started
        self.on_done = on_done
        self.owner = owner


class _Cell:
    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)


class SpeedKernel:
    """Fixed reference work of the simulator's kind; keeps its state between samples.

    Each of :data:`KERNEL_JOBS` owners submits a job, waits for its
    completion timer, records the response time and, after a think time,
    submits the next one — all driven off one timer heap with a
    linear-congruential generator, so every process does the same work.
    """

    def __init__(self, jobs: int = KERNEL_JOBS) -> None:
        self._heap: list = []
        self._active: dict = {}
        self._cells: dict = {}
        self._random = 1
        self._sequence = 0
        self._clock = 0.0
        for owner in range(jobs):
            self._submit(owner)

    def _draw(self) -> float:
        self._random = state = (self._random * 1103515245 + 12345) % 2147483648
        return state / 2147483648.0

    def _schedule(self, delay: float, callback) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (self._clock + delay, self._sequence, callback))

    def _submit(self, owner: int) -> None:
        job = _Job(self._sequence, 0.01 + self._draw(), self._clock, self._finished, owner)
        self._active[job.ident] = job
        self._schedule(
            job.demand * (1 + len(self._active)) * 1e-3, lambda: job.on_done(job)
        )

    def _finished(self, job: _Job) -> None:
        del self._active[job.ident]
        key = (int(self._clock) % 7, job.owner % 64)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _Cell()
        cell.add(self._clock - job.started)
        self._schedule(self._draw() * 0.1, lambda: self._submit(job.owner))

    def sample(self) -> float:
        """Fire :data:`KERNEL_STEPS` events; how many times slower than
        reference the host ran them (about 25 ms)."""
        heap, pop = self._heap, heapq.heappop
        begin = time.process_time()
        for _ in range(KERNEL_STEPS):
            self._clock, _, callback = pop(heap)
            callback()
        return (time.process_time() - begin) / SPEED_REFERENCE_S


_module_code = []


def import_kernel() -> None:
    """Fixed import-like reference work: unmarshal + execute module code."""
    if not _module_code:
        for name in _IMPORT_MODULES:
            spec = importlib.util.find_spec(name)
            _module_code.append(marshal.dumps(spec.loader.get_code(name)))
    for _ in range(_IMPORT_PASSES):
        for blob in _module_code:
            exec(marshal.loads(blob), {"__name__": "perf_calibration"})


def import_factor() -> float:
    """How many times slower than reference the host runs import work now
    (median of a few samples, about 0.25 s)."""
    if not _module_code:
        import_kernel()  # load the module code outside the timed samples
    times = []
    for _ in range(IMPORT_SAMPLES):
        begin = time.process_time()
        import_kernel()
        times.append(time.process_time() - begin)
    return statistics.median(times) / IMPORT_REFERENCE_S
