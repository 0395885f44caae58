"""Deadlines over the injectable clock.

A :class:`Deadline` is one started budget ("this request gets 30s").  The
serving frontend checks :meth:`Deadline.expired` before dispatch (a
request that aged out in the queue is shed, not executed) and passes
:meth:`Deadline.remaining` down as the runner's per-task harvest
timeout, so one budget covers queueing *and* execution.
"""

from __future__ import annotations

from typing import Optional

from .clock import Clock, get_clock


class Deadline:
    """One started budget: expiry checks and the remaining allowance."""

    def __init__(self, seconds: float, clock: Optional[Clock] = None) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline seconds must be > 0, got {seconds}")
        self._clock = clock if clock is not None else get_clock()
        self.seconds = float(seconds)
        self._expires = self._clock.monotonic() + self.seconds

    def remaining(self) -> float:
        return max(0.0, self._expires - self._clock.monotonic())

    def expired(self) -> bool:
        return self._clock.monotonic() >= self._expires
