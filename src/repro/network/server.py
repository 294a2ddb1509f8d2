"""The content server of the end-to-end usage model (Fig 1, Fig 3).

Hosts downloadable application packages and resources ("bonus
materials, clips etc could be downloaded from a content server", §1)
plus callable services (the XKMS trust service).  A
:class:`DownloadClient` fetches resources across a :class:`Channel`,
either in the clear or through the TLS-like secure channel.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    ChannelClosedError, NetworkError, ReproError,
    ResourceLimitExceeded, ServiceOverloadError, TimeoutError,
)
from repro.certs.authority import SigningIdentity
from repro.certs.store import TrustStore
from repro.network.channel import AsyncChannel, Channel
from repro.network.secure import SecureClient, SecureServer, establish
from repro.resilience.limits import ResourceGuard, ResourceLimits
from repro.resilience.retry import CircuitBreaker, RetryPolicy, _guarded
from repro.resilience.service import Deadline, OverloadShield
from repro.resilience.vclock import NO_DEADLINE

_REQ = 0x10
_RESP_OK = 0x20
_RESP_ERR = 0x21
_CALL = 0x30

# Multiplexed async frames: many in-flight request streams share one
# connection, matched by stream id.  The header also carries the
# request's absolute deadline on the shared injected clock — deadline
# propagation is a number in the frame, enforced at every await point
# on the far side.
MUX_REQ = 0x50
MUX_RESP = 0x51
MUX_FAULT = 0x52
MUX_ERR = 0x53

_MUX_KINDS = frozenset({MUX_REQ, MUX_RESP, MUX_FAULT, MUX_ERR})


def _encode(kind: int, *parts: bytes) -> bytes:
    body = b"".join(struct.pack(">I", len(p)) + p for p in parts)
    return struct.pack(">B", kind) + body


def _decode(message: bytes, *,
            max_bytes: int | None = None) -> tuple[int, list[bytes]]:
    if not message:
        raise NetworkError("empty message")
    if max_bytes is not None and len(message) > max_bytes:
        # Cap enforced before any part is materialized, so an
        # oversized frame costs one length check, not a copy.
        raise ResourceLimitExceeded(
            "max_frame_bytes", limit=max_bytes, actual=len(message),
        )
    kind = message[0]
    parts: list[bytes] = []
    offset = 1
    while offset < len(message):
        if offset + 4 > len(message):
            raise NetworkError("truncated message")
        (length,) = struct.unpack_from(">I", message, offset)
        offset += 4
        if offset + length > len(message):
            # A declared length past the end of the buffer means the
            # message was cut short in transit; yielding the short
            # slice would hand corrupted data to the caller.
            raise NetworkError("truncated message")
        parts.append(message[offset:offset + length])
        offset += length
    return kind, parts


@dataclass
class ContentServer:
    """Hosts resources (bytes) and services (callables).

    Args:
        identity: certificate identity for secure-channel serving.
        limits: resource quotas for incoming frames; a frame larger
            than ``limits.max_frame_bytes`` (or one that fails to
            decode) is answered with a protocol error frame — the
            server never raises at a hostile peer's behest.
    """

    identity: SigningIdentity | None = None
    resources: dict[str, bytes] = field(default_factory=dict)
    services: dict[str, Callable[[str], str]] = field(default_factory=dict)
    request_log: list[str] = field(default_factory=list)
    limits: ResourceLimits = field(default_factory=ResourceLimits.default)

    def publish(self, path: str, data: bytes) -> None:
        self.resources[path] = bytes(data)

    def publish_service(self, name: str,
                        handler: Callable[[str], str]) -> None:
        self.services[name] = handler

    def handle(self, message: bytes) -> bytes:
        """Process one request message (already off the wire).

        Always returns a response frame: malformed, oversized or
        undecodable requests get a ``400``/``413`` error frame instead
        of an exception the transport would surface as a crash.
        """
        try:
            kind, parts = _decode(
                message, max_bytes=self.limits.max_frame_bytes,
            )
        except ResourceLimitExceeded as exc:
            self.request_log.append("OVERSIZED")
            return _encode(_RESP_ERR, f"413 frame too large: {exc}".encode())
        except NetworkError as exc:
            self.request_log.append("MALFORMED")
            return _encode(_RESP_ERR, f"400 malformed frame: {exc}".encode())
        if kind == _REQ and len(parts) == 1:
            try:
                path = parts[0].decode("utf-8")
            except UnicodeDecodeError:
                return _encode(_RESP_ERR, b"400 bad path encoding")
            self.request_log.append(f"GET {path}")
            data = self.resources.get(path)
            if data is None:
                return _encode(_RESP_ERR, f"404 {path}".encode())
            return _encode(_RESP_OK, data)
        if kind == _CALL and len(parts) == 2:
            try:
                name = parts[0].decode("utf-8")
                payload = parts[1].decode("utf-8")
            except UnicodeDecodeError:
                return _encode(_RESP_ERR, b"400 bad request encoding")
            self.request_log.append(f"CALL {name}")
            service = self.services.get(name)
            if service is None:
                return _encode(_RESP_ERR, f"404 service {name}".encode())
            try:
                result = service(payload)
            except Exception as exc:
                return _encode(_RESP_ERR, f"500 {exc}".encode())
            return _encode(_RESP_OK, result.encode("utf-8"))
        return _encode(_RESP_ERR, b"400 bad request")


@dataclass
class DownloadClient:
    """Fetches from a :class:`ContentServer` over a channel.

    With a *trust_store* the client can open a secure (TLS-like)
    session; without one, transfers are cleartext and at the mercy of
    whatever adversary sits on the channel.

    With a *retry_policy*, each fetch/call retries the full round trip
    (including the secure handshake) on transient
    :class:`NetworkError`\\ s; an optional *circuit_breaker* stops
    hammering a dead server across calls.

    Responses are untrusted input: a frame larger than
    ``limits.max_frame_bytes`` is refused with a typed
    :class:`~repro.errors.ResourceLimitExceeded` before any part of
    it is decoded.
    """

    server: ContentServer
    channel: Channel = field(default_factory=Channel)
    trust_store: TrustStore | None = None
    retry_policy: RetryPolicy | None = None
    circuit_breaker: CircuitBreaker | None = None
    limits: ResourceLimits = field(default_factory=ResourceLimits.default)

    def _roundtrip_plain(self, request: bytes) -> bytes:
        wire_request = self.channel.transfer(request)
        response = self.server.handle(wire_request)
        return self.channel.transfer(response)

    def _roundtrip_secure(self, request: bytes) -> bytes:
        if self.trust_store is None:
            raise NetworkError("secure fetch needs a trust store")
        if self.server.identity is None:
            raise NetworkError("server has no identity for TLS")
        client = SecureClient(self.trust_store)
        secure_server = SecureServer(self.server.identity)
        client_session, server_session = establish(
            client, secure_server, self.channel,
        )
        wire = self.channel.transfer(client_session.seal(request))
        response = self.server.handle(server_session.open(wire))
        wire = self.channel.transfer(server_session.seal(response))
        return client_session.open(wire)

    def _parse_response(self, response: bytes) -> bytes:
        guard = ResourceGuard(self.limits)
        guard.check_frame_size(len(response))
        kind, parts = _decode(response)
        if kind == _RESP_OK and parts:
            return parts[0]
        detail = parts[0].decode("utf-8", "replace") if parts else "?"
        raise NetworkError(f"server error: {detail}")

    def fetch(self, path: str, *, secure: bool = False) -> bytes:
        """Download a resource (retried under the installed policy)."""
        request = _encode(_REQ, path.encode("utf-8"))
        roundtrip = self._roundtrip_secure if secure \
            else self._roundtrip_plain
        return _guarded(
            lambda: self._parse_response(roundtrip(request)),
            self.retry_policy, self.circuit_breaker, f"fetch {path}",
        )

    def call(self, service: str, payload: str, *,
             secure: bool = False) -> str:
        """Invoke a hosted service (e.g. the XKMS responder)."""
        request = _encode(_CALL, service.encode("utf-8"),
                          payload.encode("utf-8"))
        roundtrip = self._roundtrip_secure if secure \
            else self._roundtrip_plain
        return _guarded(
            lambda: self._parse_response(roundtrip(request)),
            self.retry_policy, self.circuit_breaker, f"call {service}",
        ).decode("utf-8")


# -- multiplexed async transport ------------------------------------------------


@dataclass(frozen=True)
class MuxFrame:
    """One multiplexed message: routing header + opaque payload."""

    kind: int
    stream_id: int
    deadline_at: float
    tenant: str
    payload: bytes

    def encode(self) -> bytes:
        header = struct.pack(">Id", self.stream_id, self.deadline_at)
        return _encode(self.kind, header,
                       self.tenant.encode("utf-8"), self.payload)


def decode_mux(message: bytes, *,
               max_bytes: int | None = None) -> MuxFrame:
    """Parse one mux frame (size-capped *before* any part decodes).

    Raises:
        NetworkError: malformed, truncated or non-mux frames.
        ResourceLimitExceeded: frame larger than *max_bytes*.
    """
    kind, parts = _decode(message, max_bytes=max_bytes)
    if kind not in _MUX_KINDS:
        raise NetworkError(f"not a mux frame (kind 0x{kind:02x})")
    if len(parts) != 3 or len(parts[0]) != 12:
        raise NetworkError("malformed mux frame")
    stream_id, deadline_at = struct.unpack(">Id", parts[0])
    try:
        tenant = parts[1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NetworkError("bad tenant encoding") from exc
    return MuxFrame(kind, stream_id, deadline_at, tenant, parts[2])


@dataclass(frozen=True)
class RequestContext:
    """What a handler knows about the request it is serving."""

    tenant: str
    deadline: Deadline
    stream_id: int


@dataclass
class MuxServerStats:
    requests: int = 0
    responses: int = 0
    faults_answered: int = 0
    sheds_answered: int = 0
    protocol_errors: int = 0
    internal_errors: int = 0
    conn_lost_answers: int = 0


class AsyncServiceServer:
    """Serves multiplexed async requests behind an overload shield.

    *handler* is ``async (payload: bytes, RequestContext) -> bytes``.
    Every request — well-formed or hostile, served or shed — gets an
    answer frame: results as ``MUX_RESP``, typed failures as
    ``MUX_FAULT`` through *fault_encoder* (the structured-busy path),
    garbage as ``MUX_ERR``.  The server never raises at a hostile
    peer's behest and never silently drops an admitted request.
    """

    def __init__(self, handler, *, clock,
                 shield: OverloadShield | None = None,
                 fault_encoder: Callable | None = None,
                 limits: ResourceLimits | None = None):
        self.handler = handler
        self.clock = clock
        self.shield = shield
        self.fault_encoder = fault_encoder or self._default_fault
        self.limits = limits or ResourceLimits.default()
        self.stats = MuxServerStats()
        self._tasks: set = set()

    @staticmethod
    def _default_fault(error: BaseException,
                       frame: MuxFrame) -> bytes:
        return f"busy {type(error).__name__}".encode("utf-8")

    async def serve(self, channel: AsyncChannel) -> None:
        """Serve one connection until its channel closes."""
        endpoint = channel.server
        try:
            while True:
                message = await endpoint.recv()
                frame = self._accept(message)
                if frame is None:
                    await self._answer_protocol_error(endpoint)
                    continue
                self.stats.requests += 1
                task = asyncio.ensure_future(
                    self._dispatch(endpoint, frame))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                self.clock.bump()
        except ChannelClosedError:
            return

    def _accept(self, message: bytes) -> MuxFrame | None:
        try:
            frame = decode_mux(
                message, max_bytes=self.limits.max_frame_bytes)
        except (NetworkError, ResourceLimitExceeded):
            self.stats.protocol_errors += 1
            return None
        if frame.kind != MUX_REQ:
            self.stats.protocol_errors += 1
            return None
        return frame

    async def aclose(self) -> None:
        """Cancel and await every in-flight dispatch task.

        ``serve`` parks each admitted request's task on ``_tasks``;
        shutdown must not return with work still in flight, or
        exceptions from the strays vanish after the server is gone.
        """
        tasks = [task for task in self._tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()

    async def _answer_protocol_error(self, endpoint) -> None:
        reply = MuxFrame(MUX_ERR, 0, NO_DEADLINE, "",
                         b"400 malformed frame")
        try:
            await endpoint.send(reply.encode())
        except ChannelClosedError:
            self.stats.conn_lost_answers += 1

    async def _dispatch(self, endpoint, frame: MuxFrame) -> None:
        deadline = Deadline(at=frame.deadline_at, clock=self.clock)
        context = RequestContext(frame.tenant, deadline,
                                 frame.stream_id)
        shed = False
        try:
            if self.shield is not None:
                payload = await self.shield.run(
                    frame.tenant, deadline,
                    lambda: self.handler(frame.payload, context))
            else:
                payload = await self.handler(frame.payload, context)
            kind = MUX_RESP
        except asyncio.CancelledError:
            # Cancellation (server shutdown) must propagate — turning
            # it into a MUX_FAULT answer would leave the canceller
            # waiting on a task that "handled" its own cancellation.
            raise
        except (ServiceOverloadError, TimeoutError) as exc:
            payload = self.fault_encoder(exc, frame)
            kind = MUX_FAULT
            shed = True
        except ReproError as exc:
            payload = self.fault_encoder(exc, frame)
            kind = MUX_FAULT
        except Exception as exc:  # noqa: BLE001 - answered, counted
            # A handler bug must not kill the connection; it becomes a
            # structured Receiver-style fault and a counter the tests
            # watch (the chaos invariant is "typed or structured").
            payload = self.fault_encoder(exc, frame)
            kind = MUX_FAULT
            self.stats.internal_errors += 1
        reply = MuxFrame(kind, frame.stream_id, frame.deadline_at,
                         frame.tenant, payload)
        try:
            await endpoint.send(reply.encode())
        except ChannelClosedError:
            self.stats.conn_lost_answers += 1
            return
        if kind == MUX_RESP:
            self.stats.responses += 1
        else:
            self.stats.faults_answered += 1
            if shed:
                self.stats.sheds_answered += 1


@dataclass
class MuxClientStats:
    calls: int = 0
    responses: int = 0
    faults: int = 0
    timeouts: int = 0
    stale_responses: int = 0
    garbage_frames: int = 0


class AsyncServiceClient:
    """The client half of the multiplexed transport.

    Any number of concurrent :meth:`call`\\ s share the connection;
    responses are matched back by stream id.  A call's deadline is both
    propagated in the frame header *and* enforced locally, so a dropped
    response (or a server that died mid-request) surfaces as a typed
    :class:`~repro.errors.TimeoutError`, never a hang.
    """

    def __init__(self, channel: AsyncChannel, *, clock=None,
                 tenant: str = "default",
                 limits: ResourceLimits | None = None):
        self.channel = channel
        self.clock = clock if clock is not None else channel.clock
        self.tenant = tenant
        self.limits = limits or ResourceLimits.default()
        self.stats = MuxClientStats()
        self._pending: dict = {}
        self._next_stream = 0
        self._reader: asyncio.Task | None = None

    def _ensure_reader(self) -> None:
        if self._reader is None or self._reader.done():
            self._reader = asyncio.ensure_future(self._read_loop())
            self.clock.bump()

    async def call(self, payload: bytes, *,
                   tenant: str | None = None,
                   deadline: Deadline | None = None) -> MuxFrame:
        """One request/response exchange; returns the answer frame."""
        self._ensure_reader()
        if deadline is None:
            deadline = Deadline.none(self.clock)
        self._next_stream += 1
        stream_id = self._next_stream
        future = asyncio.get_running_loop().create_future()
        self._pending[stream_id] = future
        frame = MuxFrame(MUX_REQ, stream_id, deadline.at,
                         tenant if tenant is not None else self.tenant,
                         payload)
        self.stats.calls += 1
        try:
            await self.channel.client.send(frame.encode())
            reply = await self.clock.wait_until(future, deadline.at)
        except TimeoutError:
            self.stats.timeouts += 1
            raise
        finally:
            self._pending.pop(stream_id, None)
        if reply.kind == MUX_RESP:
            self.stats.responses += 1
        else:
            self.stats.faults += 1
        return reply

    async def _read_loop(self) -> None:
        endpoint = self.channel.client
        try:
            while True:
                message = await endpoint.recv()
                try:
                    reply = decode_mux(
                        message,
                        max_bytes=self.limits.max_frame_bytes)
                except (NetworkError, ResourceLimitExceeded):
                    # An unparseable answer matches no stream; the
                    # stream it was meant for times out instead.
                    self.stats.garbage_frames += 1
                    continue
                future = self._pending.pop(reply.stream_id, None)
                if future is None or future.done():
                    self.stats.stale_responses += 1
                    continue
                future.set_result(reply)
                self.clock.bump()
        except ChannelClosedError:
            pending, self._pending = self._pending, {}
            for future in pending.values():
                if not future.done():
                    future.set_exception(ChannelClosedError(
                        "connection closed with the call in flight"))
            self.clock.bump()

    async def aclose(self) -> None:
        if self._reader is not None and not self._reader.done():
            self._reader.cancel()
            try:
                await self._reader
            except (asyncio.CancelledError, ChannelClosedError):
                pass
        self._reader = None
