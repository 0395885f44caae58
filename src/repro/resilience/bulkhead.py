"""Bounded admission: shed load with typed results, never queue unbounded.

SecPB admits a store into the persist buffer only while the battery can
still drain everything already admitted; past that bound the write
*waits at the gate* instead of corrupting the persistence guarantee.
The serving frontend applies the same shape to requests:

* :class:`AdmissionController` — a bounded FIFO request queue.  An
  ``offer`` past capacity (or after :meth:`AdmissionController.close`)
  returns a typed :class:`Rejected` instead of enqueueing, so overload
  produces an explicit shed response the client can retry against,
  never an unbounded backlog or a dropped connection.

Admission is deterministic by construction: the partition of a request
burst into accepted/shed depends only on arrival order and capacity,
which is what lets tests assert an exact partition for a seeded burst.
The controller counts accepts and sheds into an optional duck-typed
metrics registry (:class:`repro.obs.MetricsRegistry`).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Generic, List, Optional, TypeVar

T = TypeVar("T")

#: The closed set of shed reasons a client can see.
REJECT_QUEUE_FULL = "queue_full"
REJECT_BREAKER_OPEN = "breaker_open"
REJECT_DEADLINE = "deadline"
REJECT_DRAINING = "draining"


@dataclass(frozen=True)
class Rejected:
    """A typed load-shed outcome (never an exception: shedding is normal)."""

    reason: str
    detail: str = ""

    def __str__(self) -> str:
        return f"rejected ({self.reason}): {self.detail}" if self.detail else (
            f"rejected ({self.reason})"
        )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue bound for an :class:`AdmissionController`."""

    max_queue_depth: int = 8

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


class AdmissionController(Generic[T]):
    """Bounded FIFO work queue with typed shedding (thread-safe)."""

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        metrics: Optional[object] = None,
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._metrics = metrics
        self._items: Deque[T] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.accepted = 0
        self.shed = 0

    def _count(self, name: str, help_text: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, help_text, deterministic=False).inc()

    def offer(self, item: T) -> Optional[Rejected]:
        """Enqueue ``item``, or return why it was shed (``None`` = admitted)."""
        with self._cond:
            if self._closed:
                rejected = Rejected(
                    REJECT_DRAINING, "server is draining; retry later"
                )
            elif len(self._items) >= self.policy.max_queue_depth:
                rejected = Rejected(
                    REJECT_QUEUE_FULL,
                    f"queue depth {len(self._items)} at capacity "
                    f"{self.policy.max_queue_depth}",
                )
            else:
                self._items.append(item)
                self.accepted += 1
                self._cond.notify()
                self._count(
                    "resilience.admission_accepted",
                    "Requests admitted past the bounded queue",
                )
                return None
            self.shed += 1
            self._count(
                f"resilience.admission_shed_{rejected.reason}",
                f"Requests shed with reason {rejected.reason}",
            )
            return rejected

    def take(self, timeout: Optional[float] = None) -> Optional[T]:
        """Pop the oldest item, waiting up to ``timeout``; ``None`` on empty."""
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if self._items:
                return self._items.popleft()
            return None

    def drain(self) -> List[T]:
        """Atomically remove and return everything still queued."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            return items

    def close(self) -> None:
        """Shed all future offers with ``draining`` (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def depth(self) -> int:
        with self._cond:
            return len(self._items)

