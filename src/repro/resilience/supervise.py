"""Supervision policy: how to pace restarts of a crashing dependency.

:class:`RestartBackoff` is consecutive-failure tracking that sleeps a
:class:`~repro.resilience.retry.RetryPolicy` schedule between restarts,
used by the serving frontend's pool supervisor.  Unlike a retry loop it
never gives up — a supervisor restarts forever — but the delay index is
clamped to the policy's last (largest) delay, so a crash-looping pool
settles at the capped backoff instead of spinning.  When the pool
itself is recycled is decided by
:func:`repro.runtime.pool.get_shared_pool`.
"""

from __future__ import annotations

from typing import Optional

from .clock import Clock, get_clock
from .retry import RetryPolicy


class RestartBackoff:
    """Paces restarts of a crashing dependency (clock-injectable).

    ``record_failure`` registers one crash and sleeps the scheduled
    backoff for the current consecutive-failure streak;
    ``record_success`` resets the streak so the next crash starts from
    the base delay again.
    """

    def __init__(
        self, policy: RetryPolicy, clock: Optional[Clock] = None
    ) -> None:
        self.policy = policy
        self._clock = clock
        self.consecutive = 0
        self.restarts = 0

    def record_failure(self, key: str = "") -> float:
        """One more crash: sleep and return the backoff applied."""
        delays = self.policy.delays(key)
        index = min(self.consecutive, len(delays) - 1) if delays else -1
        self.consecutive += 1
        self.restarts += 1
        delay = delays[index] if index >= 0 else 0.0
        if delay > 0:
            (self._clock if self._clock is not None else get_clock()).sleep(
                delay
            )
        return delay

    def record_success(self) -> None:
        self.consecutive = 0
