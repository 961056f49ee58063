"""The simulation execution backend.

A thin adapter presenting the existing discrete-event substrate —
:class:`~repro.sim.engine.Simulator` as clock/timer service,
:class:`~repro.dbms.engine.DatabaseEngine` as execution engine — through
the :class:`~repro.runtime.protocols.ExecutionBackend` protocol.  It adds
**zero** behaviour: every event still fires from the same kernel in the
same order, so fixed-seed experiments are bit-identical to the pre-seam
code (``tests/runtime/test_sim_regression.py`` pins this).
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimulationConfig
from repro.dbms.engine import DatabaseEngine
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class SimulationBackend:
    """Discrete-event backend over the existing simulator and engine."""

    name = "sim"

    def __init__(
        self,
        config: SimulationConfig,
        rng: RandomStreams,
        sim: Optional[Simulator] = None,
        engine: Optional[DatabaseEngine] = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self._engine = (
            engine if engine is not None else DatabaseEngine(self.sim, config, rng)
        )

    # ------------------------------------------------------------------
    # ExecutionBackend protocol
    # ------------------------------------------------------------------
    @property
    def clock(self) -> Simulator:
        """Virtual time — the simulator is its own clock."""
        return self.sim

    @property
    def timers(self) -> Simulator:
        """The simulator is also the timer service."""
        return self.sim

    @property
    def engine(self) -> DatabaseEngine:
        """The simulated DB2-like execution engine."""
        return self._engine

    def run_until(self, end_time: float) -> None:
        """Fire events until virtual time reaches ``end_time``."""
        self.sim.run_until(end_time)

    def close(self) -> None:
        """Nothing to release — the simulator owns no OS resources."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimulationBackend(now={:.3f})".format(self.sim.now)
