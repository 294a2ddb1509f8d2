"""The ``xkms`` workload: the trust service's wire path, in wall time.

Closed-loop callers on one event loop send a seeded stream of Locate
and Validate reads plus a small share of Register and Revoke writes.
Traffic crosses two multiplexed connections (``AsyncChannel`` +
``AsyncServiceClient``) into one ``AsyncServiceServer`` behind an
``OverloadShield`` (admission bulkhead + AIMD limiter) and a sharded
``AsyncTrustService``.  The loop runs on a ``VirtualClock`` with no
modelled service delay and no think time, so virtual time never
advances and every measured millisecond is code cost.

Key names are drawn with skew from a population four times the
service's 256-entry validation cache.  Writes bump shard generations,
so a cache change that breaks revocation or makes writes dearer shows
here.

Every answer is checked against the benchmark's own binding model.
Because callers overlap, a read may legitimately see a write that ran
concurrently with it; it may never see a state older than the last
write that *returned* before the read started, so a Validate that
starts after a Revoke returned can never be answered Valid.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass

from common import Outcome
from repro.errors import ReproError
from repro.network.channel import AsyncChannel
from repro.network.server import AsyncServiceClient, AsyncServiceServer
from repro.primitives import generate_keypair
from repro.primitives.provider import set_default_provider
from repro.primitives.random import DeterministicRandomSource
from repro.resilience.degradation import DegradationLog
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.resilience.service import (
    AdmissionController, AIMDLimiter, OverloadShield, TenantPolicy,
)
from repro.resilience.vclock import VirtualClock
from repro.xkms.client import AsyncXKMSClient, MuxXKMSTransport
from repro.xkms.messages import STATUS_VALID, reset_request_ids
from repro.xkms.service import AsyncTrustService, busy_fault_payload
from tracing import set_trace

#: Four times the service's 256-entry validation cache.
POPULATION = 1024
#: Every eighth name starts unregistered (Locate answers NoMatch).
UNREGISTERED_EVERY = 8
KEY_POOL = 8
#: ``loadgen.fleet.FleetConfig.shards``.
SHARDS = 4
#: One connection per vCPU of the 2-vCPU reference machine.
CONNECTIONS = 2
#: 8 callers: more than one per connection, so replies interleave on
#: each mux, and half the 16-slot bulkhead of ``loadgen.fleet``, so
#: nothing queues.  In a closed loop on one event loop, read latency
#: grows with this depth and ``ops_per_s`` does not.
CALLERS_PER_CONNECTION = 4
#: A small share, yet some 2000 writes in a 50 s run, so
#: ``write_ms_p95`` has about 100 samples beyond it.
WRITE_SHARE = 0.05
#: The Locate/Validate split of ``loadgen.fleet``.
VALIDATE_SHARE = 0.5
#: Read names are ``population[int(N * u ** SKEW)]``: low ranks are
#: hot.  8 gives a validation-cache hit ratio of about 0.47 (writes
#: invalidate a shard's answers), so, as with the player's half of
#: relaunches, a cache change shows on hits and on misses.
SKEW = 8.0
#: Bulkhead wider than the caller count: the workload measures code
#: cost, so no request should ever queue or be shed.
TENANT_POLICY = TenantPolicy(max_concurrent=16, max_queued=16)
TIMEOUT_S = 30.0
SECRET = b"perfbench-registrar"
#: The deployment shape.  Nothing on this path calls the provider
#: today: the cache-key fingerprint and the registration HMAC use the
#: pure primitives directly.
PROVIDER = "accelerated"


@dataclass
class Binding:
    registered: bool
    valid: bool
    key: int


class BindingModel:
    """What the service must answer, with overlapping callers.

    Each name keeps the list of writes begun on it; a read remembers
    how many it had seen when it started.  Writes to one name never
    overlap (a name being written is not picked for another write).
    """

    def __init__(self, initial: dict[str, Binding]):
        self.committed = dict(initial)
        self.writes: dict[str, list] = {name: [] for name in initial}
        self.writing: dict[str, Binding] = {}

    def read_window(self, name: str):
        """Snapshot taken when a read starts."""
        return (self.committed[name], self.writing.get(name),
                len(self.writes[name]))

    def allowed(self, name: str, window) -> list[Binding]:
        """States a read that started at *window* may observe now."""
        base, pending, seen = window
        states = [base] + self.writes[name][seen:]
        if pending is not None:
            states.append(pending)
        return states

    def begin_write(self, name: str, state: Binding) -> None:
        self.writing[name] = state
        self.writes[name].append(state)

    def end_write(self, name: str, applied: bool) -> None:
        state = self.writing.pop(name)
        if applied:
            self.committed[name] = state


@dataclass
class XKMSWorld:
    clock: VirtualClock
    service: AsyncTrustService
    shield: OverloadShield
    server: AsyncServiceServer
    keys: list
    model: BindingModel
    names: list


class XKMSWorkload:
    """Seeded Locate/Validate/Register/Revoke traffic."""

    def setup(self, seed: int) -> XKMSWorld:
        """Key pool, service, shield and the registered population.

        The key pool comes from a fixed label (a fixture); which name
        holds which key, and which names start unregistered, come from
        the seed.
        """
        set_default_provider(PROVIDER)
        reset_request_ids()
        rng = DeterministicRandomSource(b"perfbench-xkms-keys")
        keys = [generate_keypair(512, rng).public_key()
                for _ in range(KEY_POOL)]
        clock = VirtualClock()
        service = AsyncTrustService(
            SHARDS, clock=clock, registration_secrets={"": SECRET})
        assign = random.Random(f"{seed}:xkms:population")
        names = [f"key-{i:04d}" for i in range(POPULATION)]
        initial = {}
        for rank, name in enumerate(names):
            key = assign.randrange(KEY_POOL)
            registered = rank % UNREGISTERED_EVERY != UNREGISTERED_EVERY - 1
            if registered:
                service.register_binding(name, keys[key])
            initial[name] = Binding(registered, registered, key)
        # Shuffle which names are hot, so the hot set spans shards.
        assign.shuffle(names)
        shield = OverloadShield(
            clock,
            admission=AdmissionController(clock, TENANT_POLICY),
            limiter=AIMDLimiter(target_latency_s=0.25),
            degradation=DegradationLog(),
            component="xkms",
        )
        server = AsyncServiceServer(
            service.handle_request, clock=clock, shield=shield,
            fault_encoder=busy_fault_payload,
        )
        return XKMSWorld(clock, service, shield, server, keys,
                         BindingModel(initial), names)

    def run(self, world: XKMSWorld, seed: int, *,
            seconds: float | None = None, steps: int | None = None,
            tracer=None) -> Outcome:
        """Issue operations until *seconds* pass or *steps* are issued."""
        outcome = Outcome()
        clock = world.clock
        channels = [AsyncChannel(clock=clock) for _ in range(CONNECTIONS)]
        muxes = [AsyncServiceClient(channel, clock=clock)
                 for channel in channels]

        def xkms_client(mux, tenant):
            return AsyncXKMSClient(
                MuxXKMSTransport(mux, tenant=tenant), clock=clock,
                retry_policy=RetryPolicy(max_attempts=2, clock=clock,
                                         seed=seed),
                circuit_breaker=CircuitBreaker(clock=clock),
                default_timeout_s=TIMEOUT_S,
            )
        readers = [xkms_client(mux, "player") for mux in muxes]
        writers = [xkms_client(mux, "studio") for mux in muxes]
        stop_at = None

        def more() -> bool:
            if steps is not None and outcome.steps >= steps:
                return False
            return stop_at is None or time.perf_counter() < stop_at

        async def caller(index: int) -> None:
            rng = random.Random(f"{seed}:xkms:caller:{index}")
            connection = index % CONNECTIONS
            while more():
                outcome.steps += 1
                outcome.attempted += 1
                if rng.random() < WRITE_SHARE:
                    operation = _Write(world, rng)
                    client = writers[connection]
                    latencies = outcome.write_ms
                else:
                    operation = _Read(world, rng)
                    client = readers[connection]
                    latencies = outcome.read_ms
                operation.begin()
                started = time.perf_counter()
                try:
                    if tracer is None:
                        answer = await operation.call(client)
                    else:
                        set_trace(None)
                        answer = await tracer.async_span(
                            "op.xkms", operation.call, client)
                except asyncio.CancelledError:
                    raise
                except ReproError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    answer = None
                except Exception as exc:  # noqa: BLE001 - untyped fails
                    error = f"untyped {type(exc).__name__}: {exc}"
                    answer = None
                else:
                    error = None
                    latencies.append(
                        (time.perf_counter() - started) * 1000.0)
                verdict = operation.end(answer)
                error = verdict if error is None else error
                if error is not None:
                    outcome.fail(error)

        async def main() -> None:
            serving = [asyncio.ensure_future(world.server.serve(channel))
                       for channel in channels]
            # Start each connection's reply reader here, in the loop's
            # own context: started lazily, it would inherit the context
            # (and trace) of whichever operation opened the connection.
            for mux in muxes:
                mux._ensure_reader()
            clock.bump()
            await asyncio.gather(*(
                caller(i)
                for i in range(CONNECTIONS * CALLERS_PER_CONNECTION)))
            for channel in channels:
                channel.close()
            for mux in muxes:
                await mux.aclose()
            await asyncio.gather(*serving)

        generations = sum(shard.generation
                          for shard in world.service.shards)
        started = time.perf_counter()
        if seconds is not None:
            stop_at = started + seconds
        clock.run(main())
        outcome.wall_s = time.perf_counter() - started
        outcome.e2e_s = outcome.wall_s
        self._collect(world, muxes, outcome, generations)
        return outcome

    @staticmethod
    def _collect(world, muxes, outcome, generations) -> None:
        shield = world.shield
        cache = world.service.cache_stats
        outcome.counts.update({
            "writes": sum(shard.generation
                          for shard in world.service.shards) - generations,
            "cache_hits": cache.hits,
            "cache_lookups": cache.hits + cache.misses,
            "cache_evictions": cache.evictions,
            "admitted": shield.admission.stats.admitted,
            "queued": shield.admission.stats.queued,
            "shed": shield.stats.sheds,
            "client_timeouts": sum(mux.stats.timeouts for mux in muxes),
            "faults": sum(mux.stats.faults for mux in muxes),
            "internal_errors": world.server.stats.internal_errors,
            "virtual_s": world.clock.now(),
        })
        # Service-side failures that no single answer shows.  Virtual
        # time must not advance: a backoff or queue timer it covered
        # would be a wait the wall clock never sees.
        for name in ("shed", "client_timeouts", "faults",
                     "internal_errors", "virtual_s"):
            if outcome.counts[name]:
                outcome.fail(f"{outcome.counts[name]} {name} in the run")

    @staticmethod
    def layer_counts(world, outcome: Outcome, tracer) -> dict:
        counts = outcome.counts
        ops = outcome.attempted or 1
        lookups = counts["cache_lookups"]
        attempts = tracer.total("xkms.client_attempts")
        return {
            "xkms.cache_hit_ratio":
                counts["cache_hits"] / lookups if lookups else 0.0,
            "xkms.cache_evictions": counts["cache_evictions"] / ops,
            "xkms.writes": counts["writes"] / ops,
            "xkms.client_retries": (attempts - outcome.attempted) / ops,
            "xkms.client_timeouts": counts["client_timeouts"] / ops,
            "xkms.faults": counts["faults"] / ops,
            "resilience.admitted": counts["admitted"] / ops,
            "resilience.queued": counts["queued"] / ops,
            "resilience.shed": counts["shed"] / ops,
        }


class _Read:
    """A Locate or a Validate of a skew-drawn name."""

    def __init__(self, world: XKMSWorld, rng: random.Random):
        self.world = world
        self.name = world.names[int(POPULATION * rng.random() ** SKEW)]
        self.validate = rng.random() < VALIDATE_SHARE

    def begin(self) -> None:
        self.window = self.world.model.read_window(self.name)
        self.key = self.world.keys[self.window[0].key]

    async def call(self, client: AsyncXKMSClient):
        if self.validate:
            return await client.validate(self.name, self.key)
        return await client.locate(self.name)

    def end(self, answer) -> str | None:
        keys = self.world.keys
        states = self.world.model.allowed(self.name, self.window)
        if self.validate:
            expected = [state.registered and state.valid
                        and keys[state.key] == self.key
                        for state in states]
        else:
            expected = [keys[state.key] if state.registered else None
                        for state in states]
        if answer in expected:
            return None
        operation = "Validate" if self.validate else "Locate"
        return (f"{operation} {self.name}: answer not allowed by the "
                "binding model")


class _Write:
    """A Revoke of a valid binding or a Register of an invalid one,
    with the key it had or with another one."""

    def __init__(self, world: XKMSWorld, rng: random.Random):
        self.world = world
        model = world.model
        self.revoke = rng.random() < 0.5
        while True:
            name = world.names[rng.randrange(POPULATION)]
            if name not in model.writing \
                    and model.committed[name].valid == self.revoke:
                break
        self.name = name
        current = model.committed[name]
        if self.revoke:
            self.state = Binding(True, False, current.key)
        else:
            # Half re-register the key they had: a cached answer from
            # before the revocation must not survive the new binding.
            key = current.key if rng.random() < 0.5 else (
                current.key + 1 + rng.randrange(KEY_POOL - 1)) % KEY_POOL
            self.state = Binding(True, True, key)

    def begin(self) -> None:
        self.world.model.begin_write(self.name, self.state)

    async def call(self, client: AsyncXKMSClient):
        if self.revoke:
            return await client.revoke(self.name, SECRET)
        return await client.register(
            self.name, self.world.keys[self.state.key], SECRET)

    def end(self, result) -> str | None:
        applied = result is not None and result.success
        if applied and not self.revoke:
            applied = bool(result.bindings) \
                and result.bindings[0].status == STATUS_VALID
        self.world.model.end_write(self.name, applied)
        if applied:
            return None
        operation = "Revoke" if self.revoke else "Register"
        return f"{operation} {self.name}: not applied"
