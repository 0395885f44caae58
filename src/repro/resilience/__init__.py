"""Resilience policy engine: declarative retry, deadline, breaker, admission.

Before this package, every "try again" in the tree was hand-rolled: the
shm plane counted attach attempts against an inline backoff tuple and
the task runner compared ``attempts <= retries`` in four places.  Each
was correct; none was *composable*, none was clock-injectable, and a
serving frontend would have needed a third variant.  This package
centralizes the patterns as pure-data policies:

* :class:`RetryPolicy` — capped exponential backoff with deterministic
  key-seeded jitter (no RNG, no clock in the schedule);
* :class:`Deadline` — a started time budget;
* :class:`CircuitBreaker` / :class:`BreakerPolicy` — closed / open /
  half-open over a failure-rate window;
* :class:`AdmissionController` / :class:`Rejected` — a bounded queue
  that sheds with typed results;
* :class:`RestartBackoff` — crash-loop pacing for a supervisor.

Everything that waits does so through the injectable clock
(:func:`get_clock` / :class:`ManualClock` / :func:`scoped_clock`), which
is what makes retry schedules, breaker cooldowns, and whole chaos soaks
wall-clock-deterministic under test.  Lint rule SPB505 fences raw
``time.sleep`` and hand-rolled ``while/except/continue`` retry loops
out of the rest of the tree; this package is their sanctioned home.

The package imports only the stdlib — it sits *below*
:mod:`repro.durability` in the layering (the interrupt plane's deadline
token uses the clock), so any module in the tree can adopt a policy
without creating an import cycle.
"""

from __future__ import annotations

from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerPolicy, CircuitBreaker
from .bulkhead import (
    REJECT_BREAKER_OPEN,
    REJECT_DEADLINE,
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    AdmissionController,
    AdmissionPolicy,
    Rejected,
)
from .clock import (
    Clock,
    ManualClock,
    SystemClock,
    get_clock,
    scoped_clock,
    set_clock,
)
from .retry import RetryPolicy, jitter_token
from .supervise import RestartBackoff
from .timeout import Deadline

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BreakerPolicy",
    "CLOSED",
    "CircuitBreaker",
    "Clock",
    "Deadline",
    "HALF_OPEN",
    "ManualClock",
    "OPEN",
    "REJECT_BREAKER_OPEN",
    "REJECT_DEADLINE",
    "REJECT_DRAINING",
    "REJECT_QUEUE_FULL",
    "Rejected",
    "RestartBackoff",
    "RetryPolicy",
    "SystemClock",
    "get_clock",
    "jitter_token",
    "scoped_clock",
    "set_clock",
]
