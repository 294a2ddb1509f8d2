"""The sans-I/O handshake core: driven by hand it matches ``establish``
byte for byte, every flight is tamper-evident, and a short ServerHello
is a typed error on both the sync and the async driver."""

import pytest

from repro.certs import SigningIdentity
from repro.errors import ChannelSecurityError
from repro.network import (
    AsyncChannel, Channel, SecureClient, SecureServer, establish,
    establish_async,
)
from repro.network.channel import Replacer
from repro.network.secure import (
    MSG_SERVER_HELLO, _TO_CLIENT, _TO_SERVER, _frame, _handshake,
)
from repro.primitives.random import DeterministicRandomSource
from repro.resilience import VirtualClock


@pytest.fixture(scope="module")
def identity(pki):
    return SigningIdentity.create(
        "CN=core.studio.example", pki.root,
        rng=DeterministicRandomSource(b"handshake-core-ident"),
    )


def endpoints(pki, identity):
    client = SecureClient(pki.trust_store(),
                          rng=DeterministicRandomSource(b"core-client"))
    server = SecureServer(identity,
                          rng=DeterministicRandomSource(b"core-server"))
    return client, server


def drive(core, tamper=None):
    """Carry every flight unchanged, except flight *tamper[0]*, which
    gets byte *tamper[1]* flipped.  Returns the core's result."""
    wire, index, directions = None, 0, []
    while True:
        try:
            direction, message = core.send(wire)
        except StopIteration as done:
            return done.value, directions
        directions.append(direction)
        wire = message
        if tamper is not None and tamper[0] == index:
            mutated = bytearray(message)
            mutated[tamper[1] % len(mutated)] ^= 0x01
            wire = bytes(mutated)
        index += 1


def test_hand_driven_core_matches_establish(pki, identity):
    (client_session, server_session), directions = drive(
        _handshake(*endpoints(pki, identity)))
    assert directions == [_TO_SERVER, _TO_CLIENT, _TO_SERVER,
                          _TO_SERVER, _TO_CLIENT]
    ref_client, ref_server = establish(*endpoints(pki, identity),
                                       Channel())
    # Same seeds, same draw order: the records are byte-identical and
    # each side opens what the other implementation sealed.
    record = client_session.seal(b"license request")
    assert record == ref_client.seal(b"license request")
    assert ref_server.open(record) == b"license request"
    assert server_session.open(record) == b"license request"
    reply = ref_server.seal(b"granted")
    assert client_session.open(reply) == b"granted"


# (flight index, byte offset): frame kind, frame length, the first
# payload byte and the last byte of each of the five flights.
TAMPERS = [(flight, offset) for flight in range(5)
           for offset in (0, 1, 5, -1)]


@pytest.mark.parametrize("flight,offset", TAMPERS)
def test_flipped_byte_in_any_flight_is_a_security_error(
        pki, identity, flight, offset):
    with pytest.raises(ChannelSecurityError):
        drive(_handshake(*endpoints(pki, identity)),
              tamper=(flight, offset))


def is_server_hello(message):
    return message[:1] == bytes([MSG_SERVER_HELLO])


SHORT_HELLO = _frame(MSG_SERVER_HELLO, b"x" * 10)


def test_short_server_hello_is_typed_on_the_sync_driver(pki, identity):
    channel = Channel([Replacer(SHORT_HELLO, is_server_hello)])
    with pytest.raises(ChannelSecurityError, match="truncated"):
        establish(*endpoints(pki, identity), channel)


def test_short_server_hello_is_typed_on_the_async_driver(pki, identity):
    clock = VirtualClock()
    channel = AsyncChannel([Replacer(SHORT_HELLO, is_server_hello)],
                           clock=clock)

    async def main():
        with pytest.raises(ChannelSecurityError, match="truncated"):
            await establish_async(*endpoints(pki, identity), channel,
                                  timeout_s=5.0)

    clock.run(main())
