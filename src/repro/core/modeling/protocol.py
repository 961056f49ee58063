"""The :class:`PerformanceModel` protocol and its input types.

Everything the control plane knows about "a performance model" lives
here.  A model answers one question — *what will a class's goal metric be
next interval if I set its cost limit to X?* — and exposes four seams the
rest of the system is wired against:

* :meth:`PerformanceModel.predict` — the prediction itself, given the
  class's current status, a candidate limit, and (optionally) a
  :class:`MixSnapshot` of the full concurrent workload;
* :meth:`PerformanceModel.observe` — one :class:`IntervalObservation` per
  control interval, from which online models learn;
* :meth:`PerformanceModel.state` — an immutable :class:`ModelState` the
  planner keeps in every ``ControlIntervalRecord``, rendered to a dict
  only when the record is exported; :meth:`PerformanceModel.describe` is
  the same rendering of the current state;
* :meth:`PerformanceModel.corrupt` / :meth:`PerformanceModel.reset` — the
  fault injector's white-box corruption seam, so breaking a model for a
  validation test never requires reaching into private attributes (the
  paper model, which holds no online state, refuses ``corrupt``).

The protocol is structural (:class:`typing.Protocol`): the paper's
analytic models, the learned ridge models and the oracle baseline all
satisfy it without inheriting from anything.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    NamedTuple,
    Optional,
    Tuple,
)

try:  # Protocol is 3.8+; keep a graceful fallback for exotic interpreters.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


if TYPE_CHECKING:  # avoid a circular import; ClassStatus lives in solver
    from repro.core.solver import ClassStatus


class ClassMixState(NamedTuple):
    """One class's slice of the concurrent mix at a control interval."""

    name: str
    kind: str  # "olap" or "oltp"
    limit: float  # cost limit active right now (timerons)
    value: Optional[float]  # latest measured goal-metric value
    queue_length: int
    in_flight_count: int
    in_flight_cost: float


class MixSnapshot(NamedTuple):
    """The full concurrent workload mix at one control interval.

    Mix-aware models (the learned predictors) condition on every class's
    cost limit, queue depth and in-flight load — not just the knob of the
    class being predicted.  Mix-blind models (the paper's analytic ones)
    simply ignore it, which is why every ``predict`` accepts ``mix=None``.
    """

    time: float
    classes: Tuple[ClassMixState, ...]

    def get(self, name: str) -> Optional[ClassMixState]:
        """The named class's state (None when not in the mix)."""
        for state in self.classes:
            if state.name == name:
                return state
        return None


class IntervalObservation(NamedTuple):
    """What the planner saw at one control interval, handed to ``observe``.

    ``mix`` is the pre-solve state: per-class measured values and the cost
    limits that were *active during the interval that just ended* (the
    plan installed by the previous decision).
    """

    time: float
    mix: MixSnapshot


class ModelState(Protocol):
    """An immutable snapshot of a model's parameters at one interval.

    Compact by design — one is kept per control interval — and rendered
    only on export: ``to_dict()`` is the model's ``describe()`` dict as it
    was when the state was taken.
    """

    #: The calibrated OLTP slope, for a model with one (else None).
    slope: Optional[float]
    #: Observations folded in so far, for a model that counts them.
    observations: Optional[int]

    def to_dict(self) -> Dict[str, object]:
        """The JSON-safe parameter dict."""
        ...


@runtime_checkable
class PerformanceModel(Protocol):
    """Structural contract every performance model satisfies."""

    #: Registry name ("paper", "learned", "oracle").
    name: str

    def predict(
        self,
        status: "ClassStatus",
        proposed_limit: float,
        mix: Optional[MixSnapshot] = None,
    ) -> float:
        """Predicted goal-metric value for the class under the limit."""
        ...

    def observe(self, observation: IntervalObservation) -> None:
        """Fold in one control interval's realised state."""
        ...

    def state(self) -> ModelState:
        """Immutable parameter snapshot (never raises, corrupted or not)."""
        ...

    def describe(self) -> Dict[str, object]:
        """JSON-safe parameter snapshot: ``state().to_dict()``."""
        ...

    def corrupt(self, mode: str = "regression") -> None:
        """Deliberately break internal state (fault-injection seam)."""
        ...

    def reset(self) -> None:
        """Restore pristine (freshly constructed) state."""
        ...
