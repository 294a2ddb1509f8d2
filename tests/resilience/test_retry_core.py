"""The sans-I/O retry core, driven by hand with no event loop, and the
one breaker classification every caller shares."""

import pytest

from repro.errors import (
    CircuitOpenError, NetworkError, RetryExhaustedError,
)
from repro.resilience import (
    STATE_OPEN, CircuitBreaker, RetryPolicy, SimulatedClock,
)


def drive_failures(policy, until=None):
    """Fail every attempt; return the delays the core asked for and
    the error that ended the run."""
    core = policy._attempts(None, "probe", until)
    next(core)
    delays = []
    while True:
        try:
            delay = core.send(NetworkError("down"))
        except RetryExhaustedError as exc:
            return delays, exc
        delays.append(delay)
        policy.clock.sleep(delay)
        next(core)


FULL = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=2.0,
                   jitter=0.1, seed=3).delays()

# (policy budget, propagated until, delays the core may sleep, ending)
CASES = [
    ({}, None, FULL, "gave up after 5"),
    # until lands inside the third backoff: that sleep is refused.
    ({}, sum(FULL[:2]) + FULL[2] / 2, FULL[:2], "deadline exhausted"),
    # exactly at the end of a backoff is still "sleeping it dry".
    ({}, sum(FULL[:3]), FULL[:2], "deadline exhausted"),
    ({"deadline": sum(FULL[:1]) + 0.5}, None, FULL[:1],
     "deadline exhausted"),
    # the tighter of the two budgets wins.
    ({"deadline": 100.0}, sum(FULL[:3]) + FULL[3] / 2, FULL[:3],
     "deadline exhausted"),
]


@pytest.mark.parametrize("budget,until,expected,ending", CASES)
def test_core_delays_follow_the_schedule_and_clip(budget, until,
                                                   expected, ending):
    policy = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=2.0,
                         jitter=0.1, seed=3, clock=SimulatedClock(),
                         **budget)
    delays, error = drive_failures(policy, until)
    assert delays == expected
    assert ending in str(error)
    assert error.attempts == len(expected) + 1


def tripped_then_half_open():
    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                             clock=clock)
    breaker.record_failure()
    clock.sleep(5.0)
    return breaker


def nested_open():
    raise CircuitOpenError("downstream breaker is open")


DRIVERS = {
    "breaker.call": lambda breaker: breaker.call(nested_open),
    "RetryPolicy.execute": lambda breaker: RetryPolicy(
        clock=breaker.clock).execute(nested_open, breaker=breaker),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_nested_control_flow_error_only_releases_the_probe(driver):
    breaker = tripped_then_half_open()
    with pytest.raises(CircuitOpenError):
        DRIVERS[driver](breaker)
    # The probe learned nothing about the service: no extra failure
    # and the cooldown keeps its original start.
    assert breaker.state == STATE_OPEN
    assert breaker.consecutive_failures == 1
    assert breaker.opened_at == 0.0
