"""The XKMS exchange core shared by the sync and async clients: the
checked result decode, exercised with no transport and no event loop,
and the breaker classification on the async client."""

import pytest

from repro.errors import CircuitOpenError, XKMSError
from repro.resilience import (
    STATE_OPEN, CircuitBreaker, ResourceLimits, VirtualClock,
)
from repro.xkms import AsyncXKMSClient, XKMSRequest, XKMSResult
from repro.xkms.client import _checked_result
from repro.xkms.messages import RESULT_SUCCESS


def answer(request_id):
    return XKMSResult("Locate", RESULT_SUCCESS,
                      request_id=request_id).to_xml()


def tiny_limits():
    return ResourceLimits(max_input_bytes=32)


# (result XML for the request, limits, expected XKMSError match or None)
CASES = {
    "answers": (lambda request: answer(request.request_id),
                ResourceLimits.default, None),
    "missing-id": (lambda request: answer(""),
                   ResourceLimits.default, "does not answer"),
    "wrong-id": (lambda request: answer("xkms-req-elsewhere"),
                 ResourceLimits.default, "does not answer"),
    "over-quota": (lambda request: answer(request.request_id),
                   tiny_limits, "max_input_bytes"),
    "malformed": (lambda request: "<LocateResult",
                  ResourceLimits.default, "unusable"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_checked_result(case):
    respond, limits, error = CASES[case]
    request = XKMSRequest("Locate", key_name="studio")
    if error is None:
        result = _checked_result(request, respond(request), limits())
        assert result.request_id == request.request_id
        return
    with pytest.raises(XKMSError, match=error):
        _checked_result(request, respond(request), limits())


def test_async_client_nested_open_circuit_only_releases_the_probe():
    clock = VirtualClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                             clock=clock)
    breaker.record_failure()

    async def nested_open(request_xml, deadline):
        raise CircuitOpenError("downstream breaker is open")

    client = AsyncXKMSClient(transport=nested_open, clock=clock,
                             circuit_breaker=breaker)

    async def main():
        await clock.asleep(5.0)
        with pytest.raises(CircuitOpenError):
            await client.locate("studio")

    clock.run(main())
    assert breaker.probes == 1
    assert breaker.state == STATE_OPEN
    assert breaker.consecutive_failures == 1
    assert breaker.opened_at == 0.0
