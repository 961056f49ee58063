"""The wall clock of the real-time timer service."""

from __future__ import annotations

import time


class WallClock:
    """Monotonic wall-clock seconds since construction (starts at 0.0)."""

    __slots__ = ("_origin",)

    def __init__(self) -> None:
        self._origin = time.perf_counter()

    @property
    def now(self) -> float:
        """Seconds elapsed since this clock was created."""
        return time.perf_counter() - self._origin
