"""Resilience policy engine: retry schedules, breakers, admission, pacing.

Acceptance anchors (ISSUE 10):

* retry schedules are **pure functions** of (policy, key) — no RNG, no
  clock read — and the shm attach policy reproduces the pre-migration
  backoff tuple bit-exactly (the byte-identity pin lives here *and* in
  ``tests/test_runtime.py``);
* every wait flows through the injectable clock: a ``ManualClock``
  drives a full breaker closed → open → half-open → closed cycle and a
  three-step restart-backoff schedule without sleeping real time;
* bounded admission sheds with typed :class:`~repro.resilience.Rejected`
  results and the accept/shed partition of an offer sequence is a pure
  function of arrival order and capacity.
"""

import hashlib

import pytest

from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    ManualClock,
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    Rejected,
    RestartBackoff,
    RetryPolicy,
    SystemClock,
    get_clock,
    jitter_token,
    scoped_clock,
    set_clock,
)


# --- jitter tokens and schedules ---------------------------------------------


class TestJitterToken:
    def test_hex_key_parses_directly(self):
        assert jitter_token("deadbeef" + "0" * 56) == 0xDEADBEEF

    def test_non_hex_key_hashes_deterministically(self):
        expected = int(
            hashlib.sha256(b"request-42").hexdigest()[:8], 16
        )
        assert jitter_token("request-42") == expected
        assert jitter_token("request-42") == jitter_token("request-42")

    def test_distinct_keys_spread(self):
        assert jitter_token("request-1") != jitter_token("request-2")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.0)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=-0.1)
        with pytest.raises(ValueError, match="jitter_frac"):
            RetryPolicy(jitter_frac=-0.5)

    def test_zero_base_delay_means_zero_schedule(self):
        policy = RetryPolicy(attempts=4, base_delay=0.0)
        assert policy.delays("deadbeef") == (0.0, 0.0, 0.0)

    def test_schedule_is_pure_per_key(self):
        policy = RetryPolicy(attempts=5, base_delay=0.01)
        digest = "a1b2c3d4" + "0" * 56
        assert policy.delays(digest) == policy.delays(digest)
        assert len(policy.delays(digest)) == policy.attempts - 1

    def test_nibble_jitter_formula_pinned(self):
        # The contract the shm migration leans on: retry i waits
        # base * multiplier**i * (1 + nibble_i * jitter_frac), where
        # nibble_i is bits [4i, 4i+4) of the key token.
        policy = RetryPolicy(
            attempts=4, base_delay=0.01, multiplier=2.0, jitter_frac=1.0 / 32.0
        )
        digest = "fedcba98" + "0" * 56
        token = 0xFEDCBA98
        expected = tuple(
            0.01 * 2.0 ** i * (1.0 + ((token >> (4 * i)) & 0xF) / 32.0)
            for i in range(3)
        )
        assert policy.delays(digest) == expected

    def test_max_delay_caps_before_jitter(self):
        policy = RetryPolicy(
            attempts=4,
            base_delay=1.0,
            multiplier=10.0,
            max_delay=2.0,
            jitter_frac=0.0,
        )
        assert policy.delays("deadbeef") == (1.0, 2.0, 2.0)

    def test_jitter_bounded_by_fifteen_nibble_steps(self):
        policy = RetryPolicy(attempts=6, base_delay=0.01, multiplier=2.0)
        for key in ("ffffffff" + "0" * 56, "0" * 64, "serve-req-9"):
            for i, delay in enumerate(policy.delays(key)):
                scaled = min(policy.max_delay, 0.01 * 2.0 ** i)
                assert scaled <= delay <= scaled * (1 + 15 * policy.jitter_frac)

    def test_empty_key_disables_jitter(self):
        policy = RetryPolicy(attempts=3, base_delay=0.5, multiplier=2.0)
        assert policy.delays("") == (0.5, 1.0)

    def test_allows_retry_matches_attempt_budget(self):
        policy = RetryPolicy(attempts=3)
        assert policy.allows_retry(0)
        assert policy.allows_retry(2)
        assert not policy.allows_retry(3)
        # attempts=1 means "run once, never retry" — the runner's
        # retries=0 configuration.
        assert not RetryPolicy(attempts=1).allows_retry(1)

    def test_attempts_iter_sleeps_schedule_between_attempts(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5, jitter_frac=0.0)
        attempts = list(policy.attempts_iter("deadbeef", clock=clock))
        assert attempts == [1, 2, 3]
        assert tuple(clock.sleeps) == policy.delays("deadbeef")

    def test_attempts_iter_lazy_success_never_sleeps(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5)
        for attempt in policy.attempts_iter("deadbeef", clock=clock):
            break  # first attempt succeeded
        assert clock.sleeps == []

    def test_call_returns_first_success(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5)
        assert policy.call(lambda: 42, clock=clock) == 42
        assert clock.sleeps == []

    def test_call_retries_then_succeeds(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5, jitter_frac=0.0)
        failures = iter([OSError("one"), OSError("two")])

        def flaky():
            try:
                raise next(failures)
            except StopIteration:
                return "ok"

        seen = []
        result = policy.call(
            flaky,
            key="deadbeef",
            retry_on=(OSError,),
            clock=clock,
            on_retry=lambda attempt, exc: seen.append((attempt, str(exc))),
        )
        assert result == "ok"
        assert seen == [(1, "one"), (2, "two")]
        assert tuple(clock.sleeps) == policy.delays("deadbeef")

    def test_call_final_failure_propagates(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=2, base_delay=0.1)

        def always():
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            policy.call(always, retry_on=(OSError,), clock=clock)
        assert len(clock.sleeps) == 1  # one backoff before the final try

    def test_call_giveup_short_circuits(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=5, base_delay=0.1)

        def vanished():
            raise FileNotFoundError("segment gone for good")

        with pytest.raises(FileNotFoundError):
            policy.call(
                vanished,
                retry_on=(OSError,),
                clock=clock,
                giveup=lambda exc: isinstance(exc, FileNotFoundError),
            )
        assert clock.sleeps == []  # no backoff was burned on a dead target

    def test_call_unlisted_exception_propagates_immediately(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1)
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            policy.call(wrong_kind, retry_on=(OSError,), clock=ManualClock())
        assert len(calls) == 1


# --- clocks ------------------------------------------------------------------


class TestClocks:
    def test_manual_clock_sleep_advances_and_records(self):
        clock = ManualClock(start=10.0)
        assert clock.monotonic() == 10.0
        clock.sleep(2.5)
        assert clock.monotonic() == 12.5
        assert clock.sleeps == [2.5]

    def test_manual_clock_ignores_nonpositive_sleep(self):
        clock = ManualClock()
        clock.sleep(0.0)
        clock.sleep(-1.0)
        assert clock.monotonic() == 0.0
        assert clock.sleeps == []

    def test_manual_clock_advance(self):
        clock = ManualClock()
        clock.advance(30.0)
        assert clock.monotonic() == 30.0
        assert clock.sleeps == []  # advance is not a sleep

    def test_scoped_clock_installs_and_restores(self):
        before = get_clock()
        manual = ManualClock()
        with scoped_clock(manual) as active:
            assert active is manual
            assert get_clock() is manual
        assert get_clock() is before

    def test_set_clock_returns_previous(self):
        manual = ManualClock()
        previous = set_clock(manual)
        try:
            assert get_clock() is manual
        finally:
            assert set_clock(previous) is manual
        assert get_clock() is previous

    def test_system_clock_is_default(self):
        assert isinstance(get_clock(), SystemClock)


# --- deadlines ---------------------------------------------------------------


class TestDeadlines:
    def test_deadline_expires_on_manual_clock(self):
        clock = ManualClock()
        deadline = Deadline(5.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == 5.0
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(1.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_deadline_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="deadline seconds"):
            Deadline(0.0, clock=ManualClock())


# --- circuit breaker ---------------------------------------------------------


def _breaker(clock, **overrides):
    settings = dict(
        window=4,
        failure_rate=0.5,
        min_calls=2,
        open_seconds=10.0,
        half_open_probes=1,
    )
    settings.update(overrides)
    return CircuitBreaker(BreakerPolicy(**settings), name="test", clock=clock)


class TestCircuitBreaker:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="window"):
            BreakerPolicy(window=0)
        with pytest.raises(ValueError, match="failure_rate"):
            BreakerPolicy(failure_rate=0.0)
        with pytest.raises(ValueError, match="failure_rate"):
            BreakerPolicy(failure_rate=1.5)
        with pytest.raises(ValueError, match="min_calls"):
            BreakerPolicy(min_calls=0)
        with pytest.raises(ValueError, match="open_seconds"):
            BreakerPolicy(open_seconds=-1.0)
        with pytest.raises(ValueError, match="half_open_probes"):
            BreakerPolicy(half_open_probes=0)

    def test_single_early_failure_does_not_trip(self):
        breaker = _breaker(ManualClock())
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_at_failure_rate_past_min_calls(self):
        breaker = _breaker(ManualClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.transitions == [(CLOSED, OPEN)]

    def test_successes_dilute_the_window(self):
        breaker = _breaker(ManualClock())
        breaker.record_success()
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/4 < 0.5

    def test_window_slides_old_outcomes_off(self):
        breaker = _breaker(ManualClock())
        breaker.record_failure()
        for _ in range(4):  # window=4: the failure falls off entirely
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/4, not 2/5

    def test_full_cycle_closed_open_half_open_closed(self):
        clock = ManualClock()
        breaker = _breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        # Cooldown not yet served: still shedding.
        clock.advance(9.9)
        assert not breaker.allow()
        # Past the cooldown: one probe is admitted.
        clock.advance(0.2)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.transitions == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = ManualClock()
        breaker = _breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == OPEN
        clock.advance(9.0)
        assert not breaker.allow()  # cooldown restarted at the re-open
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_multiple_probes_required_when_configured(self):
        clock = ManualClock()
        breaker = _breaker(clock, half_open_probes=3)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        breaker.record_success()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_closing_clears_the_window(self):
        clock = ManualClock()
        breaker = _breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        # The pre-trip failures are gone: one new failure must not trip.
        breaker.record_failure()
        assert breaker.state == CLOSED


# --- admission and bulkhead --------------------------------------------------


class TestAdmissionController:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            AdmissionPolicy(max_queue_depth=0)

    def test_fifo_accept_then_shed_partition(self):
        admission = AdmissionController(AdmissionPolicy(max_queue_depth=3))
        outcomes = [admission.offer(f"req{i}") for i in range(8)]
        assert outcomes[:3] == [None, None, None]
        assert all(
            isinstance(out, Rejected) and out.reason == REJECT_QUEUE_FULL
            for out in outcomes[3:]
        )
        assert admission.accepted == 3
        assert admission.shed == 5
        assert admission.depth() == 3

    def test_partition_is_deterministic_in_arrival_order(self):
        def run_once():
            admission = AdmissionController(
                AdmissionPolicy(max_queue_depth=4)
            )
            return [
                i for i in range(12) if admission.offer(f"req{i}") is None
            ]

        assert run_once() == run_once() == [0, 1, 2, 3]

    def test_take_is_fifo(self):
        admission = AdmissionController(AdmissionPolicy(max_queue_depth=4))
        for i in range(3):
            admission.offer(i)
        assert [admission.take(timeout=0.0) for _ in range(3)] == [0, 1, 2]
        assert admission.take(timeout=0.0) is None

    def test_take_frees_capacity(self):
        admission = AdmissionController(AdmissionPolicy(max_queue_depth=1))
        assert admission.offer("a") is None
        assert admission.offer("b").reason == REJECT_QUEUE_FULL
        assert admission.take(timeout=0.0) == "a"
        assert admission.offer("c") is None

    def test_close_sheds_draining(self):
        admission = AdmissionController(AdmissionPolicy(max_queue_depth=4))
        admission.offer("queued")
        admission.close()
        rejected = admission.offer("late")
        assert rejected.reason == REJECT_DRAINING
        # What was already queued is still drainable.
        assert admission.drain() == ["queued"]
        assert admission.depth() == 0

    def test_drain_atomically_empties(self):
        admission = AdmissionController(AdmissionPolicy(max_queue_depth=8))
        for i in range(5):
            admission.offer(i)
        assert admission.drain() == [0, 1, 2, 3, 4]
        assert admission.drain() == []


class TestRejected:
    def test_str_with_and_without_detail(self):
        assert str(Rejected("queue_full")) == "rejected (queue_full)"
        assert (
            str(Rejected("queue_full", "depth 8 at capacity 8"))
            == "rejected (queue_full): depth 8 at capacity 8"
        )


# --- supervision -------------------------------------------------------------


class TestRestartBackoff:
    def test_paces_crash_loop_and_clamps_at_cap(self):
        clock = ManualClock()
        policy = RetryPolicy(
            attempts=4, base_delay=1.0, multiplier=2.0, jitter_frac=0.0
        )
        backoff = RestartBackoff(policy, clock=clock)
        delays = [backoff.record_failure() for _ in range(5)]
        # Three scheduled delays, then the last one repeats forever —
        # a supervisor never gives up, it settles at the capped pace.
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]
        assert clock.sleeps == delays
        assert backoff.restarts == 5
        assert backoff.consecutive == 5

    def test_success_resets_the_streak(self):
        clock = ManualClock()
        policy = RetryPolicy(
            attempts=3, base_delay=1.0, multiplier=2.0, jitter_frac=0.0
        )
        backoff = RestartBackoff(policy, clock=clock)
        backoff.record_failure()
        backoff.record_failure()
        backoff.record_success()
        assert backoff.consecutive == 0
        assert backoff.record_failure() == 1.0  # back to the base delay
        assert backoff.restarts == 3  # lifetime counter keeps counting

    def test_zero_delay_policy_never_touches_the_clock(self):
        clock = ManualClock()
        backoff = RestartBackoff(
            RetryPolicy(attempts=1, base_delay=0.0), clock=clock
        )
        assert backoff.record_failure() == 0.0
        assert clock.sleeps == []
