"""Backend conformance checks.

The executable backend contract (run by ``tests/runtime/test_conformance.py``
against both shipped backends; a new backend's tests import it the same
way).  A backend is the ``(timers, engine)`` pair
:func:`~repro.runtime.make_backend` builds; the checks verify that it
honours the contract the controller stack depends on:

* **clock monotonicity** — ``now`` never goes backwards, timers never fire
  before their due time;
* **timer ordering** — due-time order, priority order within an instant,
  scheduling order within a priority;
* **timer cancellation** — cancelled timers never fire, ``cancel`` is
  exactly-once, consumed timers report inactive;
* **completion-hook balance** — every executed query reaches the engine's
  one completion hook exactly once and leaves the engine's executing set
  and counters balanced;
* **cost accounting** — ``executing_cost`` equals the sum of estimated
  costs over ``executing_snapshot`` at all times and drains to zero;
* **past deadlines** — the timer service declares and honours a policy
  for ``schedule_at`` in the past, and rejects negative or NaN delays;
* **NaN horizon** — ``run_until(nan)`` raises instead of running forever.

Each check takes a *fresh* pair and returns a list of human-readable
problems (empty = conformant).  :func:`run_conformance` runs the whole
suite through a backend factory, closing each engine.

Checks use sub-second horizons so they are cheap in wall-clock time on
real-time backends and in event count on the simulator.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Tuple

from repro.dbms.query import Query, QueryState, make_phases
from repro.errors import SimulationError
from repro.runtime import ExecutionEngine, TimerService

#: What a backend factory builds: the timer service and the engine.
Backend = Tuple[TimerService, ExecutionEngine]

#: The two admissible past-deadline contracts a timer service may declare.
PAST_DEADLINE_POLICIES = ("raise", "clamp")

#: Query-id namespace for conformance queries, far above workload ids.
_ID_BASE = 1_000_000

#: Per-check wall/virtual-second budget for draining submitted queries.
_DRAIN_LIMIT = 30.0


def _make_query(
    engine: ExecutionEngine,
    index: int,
    kind: str = "oltp",
    class_name: str = "class3",
    cpu: float = 0.004,
    io: float = 0.002,
) -> Query:
    """Build a small executable query priced by the backend's estimator.

    Estimated cost is set to the exact cost (no optimizer noise) so cost
    accounting is exactly checkable.
    """
    template = "q1" if kind == "olap" else "payment"
    cost = engine.estimator.true_cost(cpu, io)
    return Query(
        query_id=_ID_BASE + index,
        class_name=class_name,
        client_id="conformance:{}".format(index),
        template=template,
        kind=kind,
        phases=make_phases(cpu, io, 1),
        true_cost=cost,
        estimated_cost=cost,
    )


def _drain(
    timers: TimerService,
    done: Callable[[], bool],
    step: float = 0.05,
    limit: float = _DRAIN_LIMIT,
    on_step: Callable[[], None] = lambda: None,
) -> bool:
    """Run the timers in ``step``-sized slices until ``done()`` or ``limit``."""
    waited = 0.0
    while not done() and waited < limit:
        timers.run_until(timers.now + step)
        on_step()
        waited += step
    return done()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_clock_monotonicity(timers: TimerService, engine: ExecutionEngine) -> List[str]:
    """``now`` is non-decreasing; timers fire at or after their due time."""
    problems: List[str] = []
    samples: List[Tuple[float, float]] = []  # (due_time, observed_now)
    start = timers.now
    if timers.now < start:
        problems.append("clock moved backwards between consecutive reads")
    due_times = [start + d for d in (0.01, 0.05, 0.12, 0.2)]
    for due in due_times:
        timers.schedule_at(
            due,
            lambda due=due: samples.append((due, timers.now)),
            label="conformance:tick",
        )
    timers.run_until(start + 0.3)
    if len(samples) != len(due_times):
        problems.append(
            "expected {} timer firings, saw {}".format(len(due_times), len(samples))
        )
    previous = start
    for due, observed in samples:
        if observed < due - 1e-9:
            problems.append(
                "timer due at {:.4f} fired early at {:.4f}".format(due, observed)
            )
        if observed < previous - 1e-9:
            problems.append(
                "clock went backwards: {:.4f} after {:.4f}".format(observed, previous)
            )
        previous = observed
    if timers.now < start + 0.3 - 1e-9:
        problems.append("run_until returned before the requested horizon")
    return problems


def check_timer_ordering(timers: TimerService, engine: ExecutionEngine) -> List[str]:
    """Timers fire in (time, priority, scheduling-order) order."""
    problems: List[str] = []
    fired: List[str] = []
    start = timers.now
    # Scheduled deliberately out of due-time order; b/c/d share a due time
    # and exercise priority (lower first) then scheduling order.
    timers.schedule_at(start + 0.10, lambda: fired.append("c"), "c", priority=5)
    timers.schedule_at(start + 0.15, lambda: fired.append("e"), "e")
    timers.schedule_at(start + 0.10, lambda: fired.append("b"), "b", priority=-5)
    timers.schedule_at(start + 0.05, lambda: fired.append("a"), "a")
    timers.schedule_at(start + 0.10, lambda: fired.append("d"), "d", priority=5)
    timers.run_until(start + 0.25)
    expected = ["a", "b", "c", "d", "e"]
    if fired != expected:
        problems.append("firing order {} != expected {}".format(fired, expected))
    return problems


def check_timer_cancellation(timers: TimerService, engine: ExecutionEngine) -> List[str]:
    """Cancelled timers never fire; cancel() is exactly-once."""
    problems: List[str] = []
    fired: List[str] = []
    start = timers.now
    early = timers.schedule_at(
        start + 0.05, lambda: fired.append("early"), "early"
    )
    if not early.active:
        problems.append("freshly scheduled timer reports inactive")
    if not early.cancel():
        problems.append("first cancel() of a pending timer returned False")
    if early.cancel():
        problems.append("second cancel() of the same timer returned True")
    if early.active:
        problems.append("cancelled timer still reports active")

    victim = timers.schedule_at(
        start + 0.15, lambda: fired.append("victim"), "victim"
    )
    # A timer cancelling a later one from inside a callback.
    timers.schedule_at(start + 0.08, lambda: victim.cancel(), "canceller")
    survivor = timers.schedule_at(
        start + 0.12, lambda: fired.append("survivor"), "survivor"
    )
    timers.run_until(start + 0.25)
    if fired != ["survivor"]:
        problems.append(
            "expected only 'survivor' to fire, saw {}".format(fired)
        )
    if survivor.active:
        problems.append("consumed timer still reports active")
    if survivor.cancel():
        problems.append("cancel() of an already-fired timer returned True")
    return problems


def check_completion_balance(timers: TimerService, engine: ExecutionEngine) -> List[str]:
    """Every submitted query reaches the completion hook once and is retired.

    The hook is the engine's only completion path (the Query Patroller
    installs it in a deployment and fans it out to ``completed``
    subscribers), so this stands in for it.
    """
    problems: List[str] = []
    completions: Dict[int, int] = {}
    engine.set_completion_hook(
        lambda q: completions.__setitem__(q.query_id, completions.get(q.query_id, 0) + 1)
    )
    queries = [
        _make_query(engine, i, kind="olap" if i % 3 == 0 else "oltp")
        for i in range(6)
    ]
    completed_before = engine.completed_queries
    for query in queries:
        # Normally the patroller stamps submission; conformance bypasses it.
        query.submit_time = timers.now
        engine.execute(query)
    done = lambda: engine.completed_queries >= completed_before + len(queries)  # noqa: E731
    if not _drain(timers, done):
        problems.append(
            "only {}/{} queries completed within the drain budget".format(
                engine.completed_queries - completed_before, len(queries)
            )
        )
        return problems
    for query in queries:
        if completions.get(query.query_id, 0) != 1:
            problems.append(
                "query {} saw {} completion events (want 1)".format(
                    query.query_id, completions.get(query.query_id, 0)
                )
            )
        if query.state is not QueryState.COMPLETED:
            problems.append(
                "query {} finished in state {}".format(query.query_id, query.state)
            )
        if (
            query.finish_time is None
            or query.start_time is None
            or query.release_time is None
            or query.finish_time < query.start_time
            or query.start_time < query.release_time
        ):
            problems.append(
                "query {} has inconsistent timestamps "
                "(release={}, start={}, finish={})".format(
                    query.query_id,
                    query.release_time,
                    query.start_time,
                    query.finish_time,
                )
            )
    if engine.executing_queries != 0:
        problems.append(
            "engine still reports {} executing after drain".format(
                engine.executing_queries
            )
        )
    if engine.executing_snapshot():
        problems.append("executing_snapshot() non-empty after drain")
    return problems


def check_cost_accounting(timers: TimerService, engine: ExecutionEngine) -> List[str]:
    """``executing_cost`` tracks the executing set exactly, then drains."""
    problems: List[str] = []
    queries = [
        _make_query(
            engine,
            100 + i,
            kind="olap" if i % 2 == 0 else "oltp",
            class_name="class1" if i % 2 == 0 else "class3",
            cpu=0.01 + 0.004 * i,
            io=0.006,
        )
        for i in range(5)
    ]
    completed_before = engine.completed_queries
    for query in queries:
        # Normally the patroller stamps submission; conformance bypasses it.
        query.submit_time = timers.now
        engine.execute(query)

    def probe() -> None:
        snapshot = engine.executing_snapshot()
        expected_total = sum(q.estimated_cost for q in snapshot)
        if abs(engine.executing_cost() - expected_total) > 1e-6:
            problems.append(
                "executing_cost()={:.3f} but snapshot sums to {:.3f}".format(
                    engine.executing_cost(), expected_total
                )
            )
        if engine.executing_queries != len(snapshot):
            problems.append(
                "executing_queries={} but snapshot has {}".format(
                    engine.executing_queries, len(snapshot)
                )
            )
        for class_name in ("class1", "class3"):
            expected = sum(
                q.estimated_cost for q in snapshot if q.class_name == class_name
            )
            if abs(engine.executing_cost(class_name) - expected) > 1e-6:
                problems.append(
                    "executing_cost({!r})={:.3f} but snapshot sums to {:.3f}".format(
                        class_name, engine.executing_cost(class_name), expected
                    )
                )

    done = lambda: engine.completed_queries >= completed_before + len(queries)  # noqa: E731
    if not _drain(timers, done, on_step=probe):
        problems.append("cost-accounting queries did not drain in budget")
    probe()
    if abs(engine.executing_cost()) > 1e-9:
        problems.append(
            "executing_cost()={} after drain (want 0)".format(engine.executing_cost())
        )
    return problems


def check_past_deadline_contract(timers: TimerService, engine: ExecutionEngine) -> List[str]:
    """The timer service declares and honours a past-deadline policy.

    Negative and NaN *delays* are caller bugs on every backend and must
    raise :class:`~repro.errors.SimulationError`.  For an absolute time already
    in the past the two substrates legitimately differ, so each service
    declares its contract via ``past_deadline_policy``:

    * ``"raise"`` (the simulator) — a virtual clock only moves when the
      loop moves it, so scheduling before ``now`` is always a bug;
    * ``"clamp"`` (the real-time service) — on a moving wall clock "now"
      has always advanced past the caller's arithmetic, so the timer
      fires immediately (and is never observed firing before the time it
      was scheduled).
    """
    problems: List[str] = []
    policy = getattr(timers, "past_deadline_policy", None)
    if policy not in PAST_DEADLINE_POLICIES:
        problems.append(
            "timer service declares past_deadline_policy={!r}; expected "
            "one of {}".format(policy, PAST_DEADLINE_POLICIES)
        )
        return problems
    try:
        timers.schedule(-0.01, lambda: None, label="conformance:negative")
    except SimulationError:
        pass
    else:
        problems.append("schedule() accepted a negative delay without raising")
    try:
        timers.schedule(float("nan"), lambda: None, label="conformance:nan")
    except SimulationError:
        pass
    else:
        problems.append("schedule() accepted a NaN delay without raising")
    # Advance a little so "the past" exists even on a fresh clock.
    timers.run_until(timers.now + 0.05)
    past = timers.now - 0.02
    fired: List[float] = []
    if policy == "raise":
        try:
            timers.schedule_at(past, lambda: fired.append(timers.now),
                               label="conformance:past")
        except SimulationError:
            pass
        else:
            problems.append(
                "policy 'raise' but schedule_at() in the past did not raise"
            )
        if fired:
            problems.append("past-deadline timer fired under policy 'raise'")
    else:
        scheduled_at = timers.now
        try:
            timers.schedule_at(past, lambda: fired.append(timers.now),
                               label="conformance:past")
        except SimulationError:
            problems.append("policy 'clamp' but schedule_at() in the past raised")
            return problems
        if not _drain(timers, lambda: bool(fired), step=0.02, limit=2.0):
            problems.append(
                "policy 'clamp' but the past-deadline timer never fired"
            )
        elif fired[0] < scheduled_at - 1e-9:
            problems.append(
                "clamped timer observed now={:.4f} before its scheduling "
                "instant {:.4f}".format(fired[0], scheduled_at)
            )
    return problems


def check_nan_horizon(timers: TimerService, engine: ExecutionEngine) -> List[str]:
    """``run_until(nan)`` raises :class:`~repro.errors.SimulationError`.

    No clock ever reaches NaN, so a loop that waits for it never returns.
    The call runs in a daemon thread joined with a timeout, so a service
    that spins reports a problem instead of hanging the caller.
    """
    outcome: List[str] = []

    def call() -> None:
        try:
            timers.run_until(float("nan"))
        except SimulationError:
            outcome.append("raised")
        except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
            outcome.append("raised {!r}".format(exc))
        else:
            outcome.append("returned")

    thread = threading.Thread(target=call, name="conformance:nan-horizon", daemon=True)
    thread.start()
    thread.join(timeout=2.0)
    if thread.is_alive():
        return ["run_until(nan) had not returned after 2 s"]
    if outcome != ["raised"]:
        return ["run_until(nan) {} instead of raising SimulationError".format(outcome[0])]
    return []


#: The suite, in execution order.  Each check gets a fresh pair.
CONFORMANCE_CHECKS: Dict[str, Callable[[TimerService, ExecutionEngine], List[str]]] = {
    "clock_monotonicity": check_clock_monotonicity,
    "timer_ordering": check_timer_ordering,
    "timer_cancellation": check_timer_cancellation,
    "completion_balance": check_completion_balance,
    "cost_accounting": check_cost_accounting,
    "past_deadline_contract": check_past_deadline_contract,
    "nan_horizon": check_nan_horizon,
}


def run_conformance(backend_factory: Callable[[], Backend]) -> Dict[str, List[str]]:
    """Run every conformance check against fresh pairs from the factory.

    Returns ``{check_name: [problems]}`` — all lists empty for a
    conformant backend.
    """
    results: Dict[str, List[str]] = {}
    for name, check in CONFORMANCE_CHECKS.items():
        timers, engine = backend_factory()
        try:
            results[name] = check(timers, engine)
        finally:
            engine.close()
    return results
