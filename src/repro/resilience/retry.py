"""Retry policies and circuit breaking for the download/XKMS paths.

A :class:`RetryPolicy` re-runs an operation on transient
:class:`~repro.errors.NetworkError`\\ s with exponential backoff and
deterministic jitter, bounded by an attempt count and an optional
total-time deadline; a :class:`CircuitBreaker` trips after consecutive
failures so a dead service is short-circuited instead of hammered, and
half-opens after a cool-down to probe for recovery.

All timing runs on a pluggable clock (see
:mod:`repro.resilience.clock`), so tests execute second-scale backoff
schedules instantly and deterministically.

The decisions are written once, with no I/O (DESIGN §14):
``_settle`` turns any call's outcome into breaker state and
``RetryPolicy._attempts`` runs one retry loop's bookkeeping, so the
sync and async drivers only call the operation and sleep.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    CircuitOpenError, NetworkError, RetryExhaustedError, TimeoutError,
)
from repro.resilience.clock import SimulatedClock

#: Control-flow errors a policy must never swallow and retry, even
#: though they subclass NetworkError (a nested policy or breaker
#: already gave up on the caller's behalf).
NON_RETRYABLE = (RetryExhaustedError, CircuitOpenError)

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Trips open after *failure_threshold* consecutive failures.

    While open, :meth:`before_call` raises
    :class:`~repro.errors.CircuitOpenError` without touching the wire.
    After *cooldown* simulated seconds the breaker half-opens: one
    probe call is allowed through — success closes the circuit,
    failure re-opens it for another cool-down.
    """

    failure_threshold: int = 5
    cooldown: float = 30.0
    clock: object = field(default_factory=SimulatedClock)
    state: str = STATE_CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    times_opened: int = 0
    short_circuits: int = 0
    probes: int = 0
    # One breaker gates calls from every in-flight session; state
    # transitions must be atomic or concurrent failures lose counts
    # and the open/half-open step tears (CON301/CON302).
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)

    def before_call(self) -> None:
        """Gate a call; raises :class:`CircuitOpenError` while open.

        The open→half-open transition admits **exactly one** probe: the
        caller that performs the transition owns it.  Every other caller
        — including a barrier-start stampede arriving in the same
        instant the cooldown elapses — stays on the fast-fail path until
        the probe's outcome (:meth:`record_success`,
        :meth:`record_failure` or :meth:`abandon_probe`) resolves the
        state, so a recovering service sees one request, not a herd.
        """
        with self._lock:
            if self.state == STATE_CLOSED:
                return
            if self.state == STATE_HALF_OPEN:
                # A probe is already in flight; joining it would turn
                # the half-open state back into a thundering herd.
                self.short_circuits += 1
                raise CircuitOpenError(
                    "circuit half-open: recovery probe in flight",
                    attempts=self.consecutive_failures,
                    retry_after=0.0,
                )
            remaining = self.opened_at + self.cooldown \
                - self.clock.now()
            if remaining > 0:
                self.short_circuits += 1
                raise CircuitOpenError(
                    f"circuit open after {self.consecutive_failures} "
                    f"consecutive failures; half-opens in "
                    f"{remaining:g}s",
                    attempts=self.consecutive_failures,
                    retry_after=remaining,
                )
            self.state = STATE_HALF_OPEN
            self.probes += 1

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.state == STATE_HALF_OPEN or \
                    self.consecutive_failures >= self.failure_threshold:
                if self.state != STATE_OPEN:
                    self.times_opened += 1
                self.state = STATE_OPEN
                self.opened_at = self.clock.now()

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self.state = STATE_CLOSED

    def abandon_probe(self) -> None:
        """Release a half-open probe whose outcome never arrived.

        A probe that dies to a non-network exception (or a cancelled
        caller) said nothing about the service's health; without this
        release the half-open state — and its fast-fail path — would
        stick forever.  The breaker re-opens with its original
        ``opened_at``, so the remaining cooldown is not restarted.
        """
        with self._lock:
            if self.state == STATE_HALF_OPEN:
                self.state = STATE_OPEN

    def call(self, operation: Callable):
        """Run one gated, recorded call (no retries)."""
        self.before_call()
        try:
            result = operation()
        except BaseException as exc:
            _settle(self, exc)
            raise
        _settle(self, None)
        return result


def _settle(breaker: CircuitBreaker | None, error: BaseException | None,
            retryable: tuple = (NetworkError,)) -> bool:
    """Record one finished call on *breaker*; is *error* retryable?

    Success (*error* is ``None``) closes the circuit and a *retryable*
    failure counts against the service.  A nested policy's or
    breaker's verdict (:data:`NON_RETRYABLE`) or any other exception
    says nothing about the service, so it only releases a probe.
    """
    retry = error is not None and isinstance(error, retryable) \
        and not isinstance(error, NON_RETRYABLE)
    if breaker is not None:
        if error is None:
            breaker.record_success()
        elif retry:
            breaker.record_failure()
        else:
            breaker.abandon_probe()
    return retry


def _guarded(operation: Callable, policy: "RetryPolicy | None",
             breaker: CircuitBreaker | None, describe: str):
    """Run one client call under an optional policy and breaker."""
    if policy is not None:
        return policy.execute(operation, breaker=breaker,
                              describe=describe)
    if breaker is not None:
        return breaker.call(operation)
    return operation()


async def _aguarded(operation: Callable, policy: "RetryPolicy | None",
                    breaker: CircuitBreaker | None, describe: str,
                    until: float | None = None):
    """:func:`_guarded` for coroutine operations."""
    if policy is not None:
        return await policy.execute_async(
            operation, breaker=breaker, describe=describe, until=until)
    if breaker is None:
        return await operation()
    breaker.before_call()
    try:
        result = await operation()
    except BaseException as exc:
        _settle(breaker, exc)
        raise
    _settle(breaker, None)
    return result


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter and budgets.

    Args:
        max_attempts: total tries before giving up.
        base_delay: backoff before the second attempt (seconds).
        multiplier: backoff growth factor per attempt.
        max_delay: backoff ceiling.
        jitter: extra random fraction (0.1 = up to +10%) added to each
            backoff; drawn from a PRNG seeded with *seed*, so schedules
            are fully reproducible.
        deadline: total simulated-time budget; exceeded →
            :class:`RetryExhaustedError`.
        attempt_timeout: per-attempt latency budget (measured on the
            shared clock); a slower attempt is discarded and counted as
            a :class:`TimeoutError` failure.
        retryable: exception classes worth retrying.
        clock: time source shared with fault injectors and breakers.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 10.0
    jitter: float = 0.1
    deadline: float | None = None
    attempt_timeout: float | None = None
    retryable: tuple = (NetworkError,)
    seed: int = 0
    clock: object = field(default_factory=SimulatedClock)

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Backoff after failed *attempt* (1-based)."""
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay

    def delays(self) -> list[float]:
        """The full backoff schedule this policy would use (for tests)."""
        rng = random.Random(self.seed)
        return [self.backoff(attempt, rng)
                for attempt in range(1, self.max_attempts)]

    def execute(self, operation: Callable, *,
                breaker: CircuitBreaker | None = None,
                describe: str = "operation",
                until: float | None = None):
        """Run *operation* under this policy.

        Args:
            until: absolute clock instant (a propagated request
                deadline) past which no attempt starts and no backoff
                sleeps.

        Raises:
            RetryExhaustedError: attempts or deadline exhausted; carries
                the attempt count and the last underlying error.
            TimeoutError: *until* passed before an attempt could start.
            CircuitOpenError: *breaker* is open (short-circuited).
        """
        core = self._attempts(breaker, describe, until)
        next(core)
        while True:
            try:
                result = operation()
            except BaseException as exc:
                delay = core.send(exc)
                if delay is None:
                    raise
            else:
                delay = core.send(None)
                if delay is None:
                    return result
            self.clock.sleep(delay)
            next(core)

    def _attempts(self, breaker: CircuitBreaker | None, describe: str,
                  until: float | None):
        """The retry core: one run's decisions, with no I/O.

        A generator.  ``next()`` gates an attempt (attempt budget,
        propagated deadline, breaker) and raises if it may not start.
        The driver then sends the attempt's outcome — the exception it
        raised, or ``None`` — and gets back ``None`` when the run ends
        there (re-raise, or return the answer) or else the backoff to
        sleep before the next ``next()``.  A send raises the terminal
        error instead once no attempt is left to run.
        """
        rng = random.Random(self.seed)
        start = self.clock.now()
        attempts = 0
        last_error: BaseException | None = None
        while attempts < self.max_attempts:
            if until is not None and self.clock.now() >= until:
                raise TimeoutError(
                    f"{describe}: deadline expired before attempt "
                    f"{attempts + 1}",
                    attempts=attempts, elapsed=self.clock.now() - start,
                )
            if breaker is not None:
                breaker.before_call()
            attempts += 1
            attempt_start = self.clock.now()
            outcome = yield
            now = self.clock.now()
            took = now - attempt_start
            retryable = self.retryable
            if outcome is None and self.attempt_timeout is not None \
                    and took > self.attempt_timeout:
                # The caller would have hung up before the answer
                # arrived: discard it and count a timeout.
                outcome = TimeoutError(
                    f"{describe}: attempt {attempts} took {took:g}s "
                    f"(timeout {self.attempt_timeout:g}s)",
                    attempts=attempts, elapsed=now - start,
                )
                retryable = (TimeoutError,)
            if not _settle(breaker, outcome, retryable):
                yield None  # the run ends on this attempt's outcome
                return
            last_error = outcome
            if attempts >= self.max_attempts:
                break
            # A backoff that would sleep the remaining deadline dry
            # buys nothing — there is no room left for the attempt it
            # precedes — so fail *before* sleeping instead of waking
            # up at (or past) the deadline just to fail then.
            delay = self.backoff(attempts, rng)
            budgets = []
            if self.deadline is not None:
                budgets.append(start + self.deadline - now)
            if until is not None:
                budgets.append(until - now)
            if budgets and delay >= min(budgets):
                raise RetryExhaustedError(
                    f"{describe}: retry deadline exhausted after "
                    f"{attempts} attempt(s): {last_error}",
                    attempts=attempts, elapsed=now - start,
                    last_error=last_error,
                )
            yield delay
        elapsed = self.clock.now() - start
        cause = f": {last_error}" if last_error is not None else ""
        raise RetryExhaustedError(
            f"{describe}: gave up after {attempts} attempt(s) "
            f"in {elapsed:g}s{cause}",
            attempts=attempts, elapsed=elapsed, last_error=last_error,
        )

    async def _asleep(self, seconds: float) -> None:
        asleep = getattr(self.clock, "asleep", None)
        if asleep is not None:
            await asleep(seconds)
        else:
            self.clock.sleep(seconds)

    async def execute_async(self, operation: Callable, *,
                            breaker: CircuitBreaker | None = None,
                            describe: str = "operation",
                            until: float | None = None):
        """:meth:`execute` for coroutine operations.

        Identical semantics; backoff awaits the clock's ``asleep`` (a
        :class:`~repro.resilience.vclock.VirtualClock`) so other
        sessions on the event loop keep running while this one backs
        off.
        """
        core = self._attempts(breaker, describe, until)
        next(core)
        while True:
            try:
                result = await operation()
            except BaseException as exc:
                delay = core.send(exc)
                if delay is None:
                    raise
            else:
                delay = core.send(None)
                if delay is None:
                    return result
            await self._asleep(delay)
            next(core)
