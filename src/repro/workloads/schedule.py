"""The 18-period workload intensity schedule (paper Figure 3).

The paper's run is 18 consecutive periods; the client count of every class is
constant within a period.  The exact per-period counts are not recoverable
from the degraded figure, so :func:`paper_schedule` reconstructs a schedule
satisfying every constraint the text states (see DESIGN.md §2):

* Class 3 (TPC-C) cycles low/medium/high = 15/20/25 clients, so its highs
  fall on periods 3, 6, 9, 12, 15, 18 and its lows on 1, 4, 7, 10, 13, 16.
* OLAP class counts stay within 2..6.
* Period 18 is the heaviest overall, with Class 1 = 2, Class 2 = 6,
  Class 3 = 25.
* Period 17 pairs medium OLTP intensity with high OLAP intensity.

:class:`ClientPoolManager` enforces a schedule over pools of closed-loop
clients, creating clients lazily and (de)activating them at period
boundaries.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.runtime import TimerService
from repro.workloads.client import ClosedLoopClient

#: Reconstructed per-period client counts (period 1 first).
_PAPER_CLASS1 = (2, 2, 3, 2, 3, 3, 4, 3, 4, 2, 2, 2, 3, 3, 4, 2, 3, 2)
_PAPER_CLASS2 = (2, 3, 3, 3, 3, 4, 3, 4, 4, 4, 5, 5, 4, 5, 4, 4, 5, 6)
_PAPER_CLASS3 = (15, 20, 25) * 6


class PeriodSchedule:
    """Per-class client counts for each period of a run."""

    def __init__(
        self,
        period_seconds: float,
        counts: Dict[str, Sequence[int]],
    ) -> None:
        if not 0 < period_seconds < inf:  # NaN too
            raise WorkloadError("period_seconds must be positive and finite")
        if not counts:
            raise WorkloadError("schedule needs at least one class")
        lengths = {len(series) for series in counts.values()}
        if len(lengths) != 1:
            raise WorkloadError("all classes need the same number of periods")
        self.period_seconds = float(period_seconds)
        self.counts: Dict[str, Tuple[int, ...]] = {
            name: tuple(int(c) for c in series) for name, series in counts.items()
        }
        for name, series in self.counts.items():
            if any(c < 0 for c in series):
                raise WorkloadError("class {!r} has a negative client count".format(name))
        self.num_periods = lengths.pop()

    @property
    def horizon(self) -> float:
        """Total scheduled duration."""
        return self.period_seconds * self.num_periods

    @property
    def class_names(self) -> List[str]:
        """Classes covered by the schedule."""
        return sorted(self.counts)

    def period_at(self, time: float) -> int:
        """0-based period index for a simulation time.

        Times at or beyond the horizon are **clamped to the last period**:
        ``period_at(horizon)`` is ``num_periods - 1``, so end-of-run events
        (a query finishing exactly when the schedule ends) are attributed
        to the final period rather than raising.  Callers that must
        distinguish "inside the schedule" from "after it" should guard
        with :meth:`within_horizon` first.

        Exact period boundaries belong to the *starting* period:
        ``t == k * period_seconds`` maps to period ``k`` (not ``k - 1``),
        even when floating-point division of ``t / period_seconds`` lands
        fractionally below ``k``.
        """
        if time < 0:
            raise WorkloadError("negative time {}".format(time))
        index = int(time / self.period_seconds)
        # Boundary guards: t == k * period_seconds can divide to a hair
        # below (or above) k when period_seconds is not a binary fraction.
        if (index + 1) * self.period_seconds <= time:
            index += 1
        elif index > 0 and index * self.period_seconds > time:
            index -= 1
        return min(index, self.num_periods - 1)

    def period_span(self, period: int) -> Tuple[float, float]:
        """The ``[start, end)`` of the times :meth:`period_at` maps to
        ``period``; the last period's end is ``inf`` (later times clamp to it)."""
        seconds = self.period_seconds
        last = period + 1 >= self.num_periods
        return period * seconds, inf if last else (period + 1) * seconds

    def within_horizon(self, time: float) -> bool:
        """Whether ``time`` falls inside the scheduled run (``0 <= t < horizon``).

        :meth:`period_at` / :meth:`count_at` clamp out-of-range times to
        the last period; use this guard when clamping would silently
        mis-attribute an event that happens after the schedule is over.
        """
        return 0 <= time < self.horizon

    def count_at(self, class_name: str, time: float) -> int:
        """Scheduled client count of a class at a simulation time.

        Like :meth:`period_at`, times at or past the horizon are clamped
        to the last period; guard with :meth:`within_horizon` when the
        schedule being over must read as "zero clients" instead.
        """
        return self.counts[class_name][self.period_at(time)]

    def peak_count(self, class_name: str) -> int:
        """Largest scheduled client count of a class."""
        return max(self.counts[class_name])

    def scaled(self, period_seconds: float) -> "PeriodSchedule":
        """Same shape on a different period length."""
        return PeriodSchedule(period_seconds, dict(self.counts))


def paper_schedule(period_seconds: float = 120.0) -> PeriodSchedule:
    """The reconstructed Figure 3 schedule (see module docstring)."""
    return PeriodSchedule(
        period_seconds,
        {
            "class1": _PAPER_CLASS1,
            "class2": _PAPER_CLASS2,
            "class3": _PAPER_CLASS3,
        },
    )


def constant_schedule(
    period_seconds: float,
    num_periods: int,
    counts: Dict[str, int],
) -> PeriodSchedule:
    """A flat schedule (used by calibration and the Figure 2 experiment)."""
    return PeriodSchedule(
        period_seconds,
        {name: [count] * num_periods for name, count in counts.items()},
    )


ClientBuilder = Callable[[str, str], ClosedLoopClient]


class ClientPoolManager:
    """Drives client pools through a :class:`PeriodSchedule`.

    Parameters
    ----------
    sim:
        The simulator (period boundaries become scheduled events).
    schedule:
        The intensity schedule to enforce.
    client_builder:
        ``(class_name, client_id) -> ClosedLoopClient``; called lazily the
        first time a slot is needed.  Clients are reused across periods so
        client ids — and hence snapshot-monitor connections — are stable.
    """

    def __init__(
        self,
        sim: TimerService,
        schedule: PeriodSchedule,
        client_builder: ClientBuilder,
    ) -> None:
        self.sim = sim
        self.schedule = schedule
        self.client_builder = client_builder
        self._pools: Dict[str, List[ClosedLoopClient]] = {
            name: [] for name in schedule.counts
        }
        self._started = False

    def pool(self, class_name: str) -> List[ClosedLoopClient]:
        """All clients ever created for a class (active or not)."""
        return list(self._pools[class_name])

    def active_count(self, class_name: str) -> int:
        """Clients of the class currently in the submit loop."""
        return sum(1 for c in self._pools[class_name] if c.active)

    def start(self) -> None:
        """Install period-boundary events and apply period 1 immediately."""
        if self._started:
            raise WorkloadError("ClientPoolManager started twice")
        self._started = True
        for period in range(self.schedule.num_periods):
            at = self.sim.now + period * self.schedule.period_seconds
            self.sim.schedule_at(
                at,
                lambda p=period: self._apply_period(p),
                label="schedule:period:{}".format(period + 1),
                priority=-1,  # adjust intensity before same-instant work
            )

    def _apply_period(self, period: int) -> None:
        for class_name, series in self.schedule.counts.items():
            self._resize(class_name, series[period])

    def _resize(self, class_name: str, target: int) -> None:
        pool = self._pools[class_name]
        while len(pool) < target:
            client_id = "{}-c{}".format(class_name, len(pool))
            pool.append(self.client_builder(class_name, client_id))
        for index, client in enumerate(pool):
            if index < target:
                client.activate()
            else:
                client.deactivate()
