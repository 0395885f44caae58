"""The serving engine: admission, dispatch, supervision, graceful drain.

:class:`ServerCore` is the transport-free heart of ``repro serve`` — the
Unix-socket frontend (:mod:`repro.serve.frontend`) and the in-process
test client (:mod:`repro.serve.client`) both drive exactly this object,
so every overload and drain behavior is testable without a socket.

The request path composes the :mod:`repro.resilience` policies:

1. **Admission** (:class:`~repro.resilience.AdmissionController`) — a
   bounded FIFO queue.  A full queue sheds with a typed ``queue_full``
   response *at submit time*, which makes the accept/shed partition of
   a burst a pure function of arrival order and capacity.
2. **Dispatch** — one dispatcher thread pops requests and executes them
   through :func:`~repro.analysis.runner.run_jobs`: single-benchmark
   requests run serially in-process (the byte-identity reference path),
   multi-benchmark sweeps ride the process-wide warm pool.
3. **Deadlines** — a per-request budget measured from admission; a
   request whose budget expired while queued is shed (``deadline``),
   never started.
4. **Breakers** (:class:`~repro.resilience.CircuitBreaker`, one per
   scheme) — repeated execution failures trip the scheme open and
   subsequent requests shed immediately (``breaker_open``) until the
   cooldown admits a probe.
5. **Supervision** — a crashed pool is never reused: the runner latches
   it unhealthy and :func:`repro.runtime.pool.get_shared_pool` forks a
   fresh generation at the next acquisition, while
   :class:`~repro.resilience.RestartBackoff` paces those refork cycles
   so a crash loop cannot spin hot.

**Graceful drain**: :meth:`ServerCore.drain` closes admission, journals
everything still queued into a ``serve-drain`` journal
(:mod:`repro.durability.journal` format), answers those requests with
``journaled`` responses, and waits out the in-flight request.  The
journal replays through :func:`execute_drained` (the CLI's
``--resume-drain``), whose results are byte-identical to what the live
server would have produced — requests are deterministic jobs.

All waiting flows through the injectable clock, so overload and breaker
tests drive cooldowns with a :class:`~repro.resilience.ManualClock`.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..analysis.runner import SimJob, SimSpec, run_jobs
from ..analysis.serialize import simulation_result_to_payload
from ..durability.journal import JournalError, JournalWriter, read_journal
from ..obs import MetricsRegistry
from ..obs.tracing import LANE_SERVE, Tracer
from ..resilience import (
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
    Clock,
    Deadline,
    REJECT_BREAKER_OPEN,
    REJECT_DEADLINE,
    Rejected,
    RestartBackoff,
    RetryPolicy,
    get_clock,
)
from ..runtime.pool import pool_stats, shutdown_shared_pool
from ..runtime.shm import cleanup_shared_registry
from .protocol import (
    ControlRequest,
    SimRequest,
    control_response,
    error_response,
    journaled_response,
    ok_response,
    parse_request,
    request_to_payload,
    shed_response,
)

logger = logging.getLogger(__name__)

DRAIN_JOURNAL_KIND = "serve-drain"
"""Journal ``kind`` tag for drained-request journals."""

DRAIN_JOURNAL_SPEC = {"version": 1}
"""Fingerprinted spec header for drain journals."""

#: Breaker key for requests with no scheme (the insecure baseline).
_BASELINE_KEY = "baseline"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`ServerCore` (all declarative policies).

    Attributes:
        workers: pool width for multi-benchmark sweep requests (a
            single-benchmark request always runs serially).
        queue_depth: admission bound — requests past it shed.
        default_deadline_s: budget applied to requests that carry none
            (``None`` = no default budget).
        retries: runner retry budget per job (0 = failures surface to
            the breaker immediately; the supervisor restarts the pool).
        breaker: per-scheme breaker policy.
        restart_backoff: pacing schedule for pool-crash recovery; the
            zero-delay first step means a single isolated crash costs
            nothing extra.
        drain_grace_s: how long :meth:`ServerCore.drain` waits for the
            in-flight request before giving up the join.
    """

    workers: int = 2
    queue_depth: int = 8
    default_deadline_s: Optional[float] = None
    retries: int = 0
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    restart_backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            attempts=4, base_delay=0.05, multiplier=4.0, max_delay=2.0
        )
    )
    drain_grace_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.drain_grace_s < 0:
            raise ValueError(
                f"drain_grace_s must be >= 0, got {self.drain_grace_s}"
            )


@dataclass
class _Pending:
    """One admitted request waiting for (or in) dispatch."""

    request: SimRequest
    respond: Callable[[Dict[str, Any]], None]
    deadline: Optional[Deadline] = None


def build_jobs(request: SimRequest) -> List[SimJob]:
    """The runner jobs for one request — also the resume/byte-identity path."""
    spec = SimSpec(scheme=request.scheme)
    return [
        SimJob(
            key=(request.id, benchmark),
            benchmark=benchmark,
            num_ops=request.num_ops,
            seed=request.seed,
            warmup_frac=request.warmup,
            spec=spec,
        )
        for benchmark in request.benchmarks
    ]


def results_payload(
    jobs: List[SimJob], results: Dict[Any, Any]
) -> Dict[str, Dict[str, Any]]:
    """Map benchmark -> serialized result, in job order."""
    return {
        job.benchmark: simulation_result_to_payload(results[job.key])
        for job in jobs
    }


class ServerCore:
    """Transport-free serving engine (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Clock] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._clock = clock if clock is not None else get_clock()
        self.admission: AdmissionController[_Pending] = AdmissionController(
            AdmissionPolicy(max_queue_depth=self.config.queue_depth),
            metrics=self.metrics,
        )
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.restarts = RestartBackoff(
            self.config.restart_backoff, clock=self._clock
        )
        self._breaker_lock = threading.Lock()
        self._stop = threading.Event()
        self._gate = threading.Event()
        self._gate.set()
        self._draining = False
        self._in_flight = 0
        self._dispatcher: Optional[threading.Thread] = None
        self.completed = 0
        self.errors = 0
        self.journaled = 0

    # --- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._dispatcher is not None and self._dispatcher.is_alive():
            return
        self._stop.clear()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    def pause(self) -> None:
        """Hold dispatch (tests: freeze the queue to assert partitions)."""
        self._gate.clear()

    def unpause(self) -> None:
        self._gate.set()

    @property
    def ready(self) -> bool:
        return (
            self._dispatcher is not None
            and self._dispatcher.is_alive()
            and not self._draining
        )

    # --- request path -----------------------------------------------------

    def submit(
        self,
        request: SimRequest,
        respond: Callable[[Dict[str, Any]], None],
    ) -> Optional[Rejected]:
        """Admit ``request`` (or shed it, answering immediately).

        Returns the :class:`~repro.resilience.Rejected` when shed,
        ``None`` when queued; either way ``respond`` eventually fires
        exactly once.
        """
        self._count("serve.requests", "Requests offered to admission")
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        deadline = (
            Deadline(deadline_s, clock=self._clock)
            if deadline_s is not None
            else None
        )
        pending = _Pending(request=request, respond=respond, deadline=deadline)
        rejected = self.admission.offer(pending)
        if rejected is not None:
            respond(shed_response(request.id, rejected.reason, rejected.detail))
        return rejected

    def control(self, request: ControlRequest) -> Dict[str, Any]:
        """Answer a health/stats query inline (never queued)."""
        if request.op == "health":
            return control_response(
                request.id,
                {"ready": self.ready, "draining": self._draining},
            )
        return control_response(request.id, {"stats": self.stats()})

    def stats(self) -> Dict[str, Any]:
        """Observability snapshot for the ``stats`` control op."""
        return {
            "queue_depth": self.admission.depth(),
            "accepted": self.admission.accepted,
            "shed": self.admission.shed,
            "completed": self.completed,
            "errors": self.errors,
            "journaled": self.journaled,
            "in_flight": self._in_flight,
            "draining": self._draining,
            "breakers": {
                name: breaker.state for name, breaker in self.breakers.items()
            },
            "pool": pool_stats(),
            "pool_restarts": self.restarts.restarts,
        }

    # --- dispatch ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            if not self._gate.wait(timeout=0.05):
                continue
            pending = self.admission.take(timeout=0.1)
            if pending is None:
                continue
            self._in_flight += 1
            try:
                response = self._execute(pending)
            finally:
                self._in_flight -= 1
            pending.respond(response)

    def breaker_for(self, scheme: Optional[str]) -> CircuitBreaker:
        key = scheme if scheme is not None else _BASELINE_KEY
        with self._breaker_lock:
            breaker = self.breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.config.breaker,
                    name=key,
                    clock=self._clock,
                    metrics=self.metrics,
                )
                self.breakers[key] = breaker
            return breaker

    def _execute(self, pending: _Pending) -> Dict[str, Any]:
        request = pending.request
        started = self._clock.monotonic()
        if pending.deadline is not None and pending.deadline.expired():
            self._count("serve.shed_deadline", "Requests expired while queued")
            return shed_response(
                request.id,
                REJECT_DEADLINE,
                f"budget of {pending.deadline.seconds:g}s expired in queue",
            )
        breaker = self.breaker_for(request.scheme)
        if not breaker.allow():
            self._count(
                "serve.shed_breaker", "Requests shed on an open breaker"
            )
            return shed_response(
                request.id,
                REJECT_BREAKER_OPEN,
                f"breaker for scheme {breaker.name!r} is open",
            )
        jobs = build_jobs(request)
        workers = self.config.workers if len(jobs) > 1 else 1
        timeout = (
            pending.deadline.remaining()
            if pending.deadline is not None
            else None
        )
        try:
            results = run_jobs(
                jobs,
                workers=workers,
                on_error="raise",
                retries=self.config.retries,
                timeout=timeout,
                metrics=self.metrics,
            )
        except Exception as exc:  # noqa: BLE001 - graded into the breaker
            breaker.record_failure()
            self.errors += 1
            self._count("serve.errors", "Requests that failed in execution")
            # Pace the pool refork: the runner already latched the
            # crashed pool unhealthy, so the next acquisition forks a
            # fresh generation — this sleep (virtual under ManualClock)
            # keeps a crash loop from spinning hot.
            delay = self.restarts.record_failure(key=request.id)
            logger.warning(
                "request %s failed (%s: %s); pool restart paced %.3fs",
                request.id, type(exc).__name__, exc, delay,
            )
            return error_response(request.id, type(exc).__name__, str(exc))
        breaker.record_success()
        self.restarts.record_success()
        self.completed += 1
        self._count("serve.completed", "Requests completed successfully")
        if self.tracer is not None:
            finished = self._clock.monotonic()
            self.tracer.complete(
                f"request {request.id}",
                "serve",
                LANE_SERVE,
                ts=started,
                dur=finished - started,
                args={
                    "benchmarks": list(request.benchmarks),
                    "scheme": request.scheme or _BASELINE_KEY,
                },
            )
        return ok_response(request.id, results_payload(jobs, results))

    # --- drain ------------------------------------------------------------

    def drain(self, journal_path: Union[str, Path]) -> int:
        """Stop admitting, journal the queue, wait out the in-flight work.

        Returns the number of journaled requests.  Safe to call once;
        subsequent calls return 0 without touching the journal.
        """
        if self._draining:
            return 0
        self._draining = True
        self.admission.close()
        leftovers = self.admission.drain()
        count = 0
        if leftovers:
            journal_path = Path(journal_path)
            writer = JournalWriter.create(
                journal_path, DRAIN_JOURNAL_KIND, dict(DRAIN_JOURNAL_SPEC)
            )
            try:
                for pending in leftovers:
                    writer.append(
                        pending.request.id,
                        request_to_payload(pending.request),
                    )
                    pending.respond(
                        journaled_response(
                            pending.request.id, str(journal_path)
                        )
                    )
                    count += 1
            finally:
                writer.close()
            self.journaled += count
            self._count_n(
                "serve.journaled", "Requests journaled at drain", count
            )
            logger.info(
                "drained %d queued request(s) into %s", count, journal_path
            )
        self.stop()
        return count

    def stop(self) -> None:
        """Stop the dispatcher (waits ``drain_grace_s`` for in-flight work),
        then release the warm pool and every owned shm segment."""
        self._stop.set()
        self._gate.set()
        dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher.is_alive():
            dispatcher.join(timeout=self.config.drain_grace_s)
            if dispatcher.is_alive():  # pragma: no cover - wedged execution
                logger.warning(
                    "dispatcher did not finish within the %.1fs drain grace",
                    self.config.drain_grace_s,
                )
        shutdown_shared_pool(wait=False)
        cleanup_shared_registry()

    # --- metrics helpers --------------------------------------------------

    def _count(self, name: str, help_text: str) -> None:
        self.metrics.counter(name, help_text, deterministic=False).inc()

    def _count_n(self, name: str, help_text: str, amount: int) -> None:
        self.metrics.counter(name, help_text, deterministic=False).inc(amount)


# --- drain-journal resume ---------------------------------------------------


def read_drained_requests(
    journal_path: Union[str, Path],
) -> List[SimRequest]:
    """Parse a drain journal back into requests (validates the kind)."""
    journal = read_journal(journal_path)
    if journal.kind != DRAIN_JOURNAL_KIND:
        raise JournalError(
            f"journal {journal_path} is a {journal.kind!r} journal, not "
            f"{DRAIN_JOURNAL_KIND!r}"
        )
    requests: List[SimRequest] = []
    for payload in journal.entries.values():
        request = parse_request(payload)
        assert isinstance(request, SimRequest)
        requests.append(request)
    return requests


def execute_drained(
    journal_path: Union[str, Path],
    workers: int = 2,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Re-run every journaled request; results are byte-identical to what
    the live server would have produced (requests are deterministic jobs).

    Returns ``{request_id: {benchmark: result payload}}``.
    """
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for request in read_drained_requests(journal_path):
        jobs = build_jobs(request)
        results = run_jobs(
            jobs,
            workers=workers if len(jobs) > 1 else 1,
            on_error="raise",
            retries=0,
            metrics=metrics,
        )
        out[request.id] = results_payload(jobs, results)
    return out
