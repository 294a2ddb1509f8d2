"""The ``player`` and ``player_pure`` workloads.

One closed-loop caller on one thread.  Each step launches one
application, as a player would after a download request:
``DownloadClient.fetch`` → ``PlaybackPipeline.open_package`` (parse →
verify → decrypt → permissions) → ``InteractiveApplicationEngine
.execute``.  In about half of the steps the package is new: a studio
first builds it with ``AuthoringPipeline.build_package`` (sign, then
encrypt) and publishes it with ``ContentServer.publish``, and that
authoring is timed as its own write operation.  The other steps
re-open an earlier package, chosen with a skew towards the newest
ones (the hot set moves as titles are released), so the verifier's
signature and chain memos both hit and miss.

Every application is generated from the seed: its script count and
length, its sub-markups, which parts are encrypted and whether the
package is tampered at rest.  The generator predicts each script's
final state, so a launch is only correct when the session is trusted
and every script variable holds the predicted value.  A tampered
package is correct only when it is barred with
``ApplicationRejectedError``.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass

from common import Outcome
from repro.certs import CertificateAuthority, SigningIdentity, TrustStore
from repro.core import AuthoringPipeline, PlaybackPipeline
from repro.disc import ApplicationManifest
from repro.disc.manifest import Script, SubMarkup
from repro.errors import ApplicationRejectedError
from repro.network import Channel, ContentServer, DownloadClient
from repro.perf.cache import get_default_cache
from repro.permissions import PERM_RETURN_CHANNEL, PermissionRequestFile
from repro.player.engine import InteractiveApplicationEngine
from repro.primitives import DeterministicRandomSource
from repro.primitives.provider import get_provider, set_default_provider
from repro.primitives.rsa import generate_keypair
from repro.xmlcore import parse_element
from tracing import set_trace

#: Share of steps that author and publish a new package first; the
#: rest relaunch one, so the verifier's memos hit about half the time.
NEW_SHARE = 0.5
#: Share of packages tampered at rest (they must be barred).  A
#: placeholder for "a small share": a 50 s run on ``player``
#: authors over 1000 packages, so every run checks the barred path
#: dozens of times while barred launches stay a small part of
#: ``read_ms``.
TAMPER_SHARE = 0.04
#: Packages a relaunch may pick from: the newest ones.  Each new
#: package takes the server slot of the one leaving the window, so the
#: benchmark's own state stays bounded and the mix is the same however
#: many steps a run gets through.
WINDOW = 256
CDN_HOST = "cdn.example"

_NS = "urn:bda:bdmv:interactive-cluster"
LAYOUT = (
    f'<layout xmlns="{_NS}"><root-layout width="1920" height="1080"/>'
    '<region regionName="main" width="1920" height="880"/>'
    '<region regionName="menu" top="880" width="1920" height="200"/>'
    "</layout>"
)


@dataclass
class AppSpec:
    """One generated application and what launching it must give."""

    index: int
    manifest: ApplicationManifest
    permissions: PermissionRequestFile
    encrypt_ids: tuple
    tampered: bool
    expected: dict

    @property
    def path(self) -> str:
        return f"/apps/slot-{self.index % WINDOW:03d}.pkg"


def _timing(rng: random.Random) -> str:
    clips = "".join(
        f'<video src="bd://BDMV/STREAM/{rng.randint(1, 99):05d}.m2ts" '
        f'region="main" dur="{rng.randint(5, 120)}s"/>'
        for _ in range(rng.randint(1, 4))
    )
    banner = ('<par><img src="bd://BDMV/AUXDATA/banner.png" '
              f'region="menu" begin="{rng.randint(0, 9)}s" dur="8s"/>'
              "</par>") if rng.random() < 0.5 else ""
    return f'<seq xmlns="{_NS}">{clips}{banner}</seq>'


def _aux(rng: random.Random, index: int) -> str:
    items = "".join(f'<item v="{rng.randint(0, 9999)}"/>'
                    for _ in range(rng.randint(2, 12)))
    return f'<aux xmlns="{_NS}" n="{index}">{items}</aux>'


def _script(rng: random.Random, j: int) -> tuple[str, int]:
    """ECMAScript source and the final value of its variable."""
    start = rng.randint(1, 50)
    step = rng.randint(1, 9)
    lines = rng.randint(5, 60)
    loops = rng.randint(0, 30)
    value = start + lines * step
    for _ in range(loops):
        value = (value * 7 + step) % 10007
    source = "\n".join(
        [f"var v{j} = {start};"]
        + [f"v{j} = v{j} + {step};"] * lines
        + [f"function step{j}(x) {{ return (x * 7 + {step}) % 10007; }}",
           f"for (var i = 0; i < {loops}; i = i + 1) "
           f"{{ v{j} = step{j}(v{j}); }}",
           f'player.log("v{j}=" + v{j});']
    )
    return source, value


def make_app(seed: int, index: int) -> AppSpec:
    """The *index*-th application of the stream for *seed*.

    Every ``Id`` is derived from *index*, so generating the same
    application again gives byte-identical markup.
    """
    rng = random.Random(f"{seed}:app:{index}")
    name = f"app-{index:06d}"
    manifest = ApplicationManifest(
        name, manifest_id=f"{name}-manifest", markup_id=f"{name}-markup",
        code_id=f"{name}-code")
    bodies = [("layout", LAYOUT), ("timing", _timing(rng))]
    bodies += [(f"aux-{k}", _aux(rng, k))
               for k in range(rng.randint(0, 3))]
    for k, (kind, body) in enumerate(bodies):
        manifest.submarkups.append(SubMarkup(
            kind, parse_element(body), submarkup_id=f"{name}-sub{k}"))
    expected = {}
    for j in range(rng.randint(1, 4)):
        source, value = _script(rng, j)
        manifest.scripts.append(Script(source, script_id=f"{name}-js{j}"))
        expected[f"v{j}"] = float(value)
    regions = rng.choice((0, 1, 1, 2, 2, 3))
    if rng.random() < 0.5:
        pool = [s.script_id for s in manifest.scripts] \
            + [s.submarkup_id for s in manifest.submarkups]
    else:
        pool = [manifest.code_id, manifest.markup_id]
    permissions = PermissionRequestFile(name, "org.example")
    permissions.request(PERM_RETURN_CHANNEL, hosts=(CDN_HOST,))
    return AppSpec(
        index=index,
        manifest=manifest,
        permissions=permissions,
        encrypt_ids=tuple(rng.sample(pool, min(regions, len(pool)))),
        tampered=rng.random() < TAMPER_SHARE,
        expected=expected,
    )


def tamper(data: bytes, name: str) -> bytes:
    """Rename the application inside signed content (same length)."""
    needle = f'name="{name}"'.encode()
    if needle not in data:
        raise ValueError(f"package carries no {needle!r}")
    return data.replace(needle, f'name="X{name[1:]}"'.encode(), 1)


@dataclass
class PlayerWorld:
    server: ContentServer
    client: DownloadClient
    pipeline: PlaybackPipeline
    engine: InteractiveApplicationEngine
    authoring: AuthoringPipeline


class PlayerWorkload:
    """Authoring plus launches on one crypto provider."""

    def __init__(self, provider: str):
        self.provider_name = provider

    def setup(self, seed: int) -> PlayerWorld:
        """PKI, device key and the player/studio objects.

        The key material comes from a fixed label, not the seed: it is
        the deployment's fixture, and its generation cost then does
        not vary between seeds.
        """
        set_default_provider(self.provider_name)
        provider = get_provider(self.provider_name)
        rng = DeterministicRandomSource(b"perfbench-player-pki")
        root = CertificateAuthority.create_root("CN=Disc Root CA", rng=rng)
        studio = SigningIdentity.create("CN=Studio", root, rng=rng)
        device_key = generate_keypair(1024, rng)
        trust = TrustStore(roots=[root.certificate])
        server = ContentServer()
        pipeline = PlaybackPipeline(trust_store=trust,
                                    device_key=device_key,
                                    provider=provider)
        return PlayerWorld(
            server=server,
            client=DownloadClient(server, Channel()),
            pipeline=pipeline,
            engine=InteractiveApplicationEngine(pipeline),
            authoring=AuthoringPipeline(
                studio, recipient_key=device_key.public_key(),
                provider=provider,
                rng=DeterministicRandomSource(
                    f"perfbench-authoring:{seed}".encode()),
            ),
        )

    def run(self, world: PlayerWorld, seed: int, *,
            seconds: float | None = None, steps: int | None = None,
            tracer=None) -> Outcome:
        """Launch until *seconds* pass or *steps* launches are done."""
        get_default_cache().clear()
        stream = random.Random(f"{seed}:stream")
        published: deque[AppSpec] = deque(maxlen=WINDOW)
        authored = 0
        outcome = Outcome()
        outcome.counts["regions_launched"] = 0
        clock = time.perf_counter
        started = clock()
        stop_at = started + seconds if seconds is not None else None
        while (steps is None or outcome.steps < steps) \
                and (stop_at is None or clock() < stop_at):
            outcome.steps += 1
            if not published or stream.random() < NEW_SHARE:
                spec = make_app(seed, authored)
                authored += 1
                self._timed(tracer, "author", outcome, outcome.write_ms,
                            self._author, world, spec)
                published.append(spec)
            else:
                # Newest titles are hot.  A placeholder shape: every
                # package of the window fits the verifier's memos, so
                # the shape moves no hit ratio.
                spec = published[-1 - int(len(published)
                                          * stream.random() ** 2)]
            if not spec.tampered:
                outcome.counts["regions_launched"] += len(spec.encrypt_ids)
            self._timed(tracer, "barred" if spec.tampered else "launch",
                        outcome, outcome.read_ms, self._launch, world, spec)
        outcome.wall_s = clock() - started
        return outcome

    @staticmethod
    def _timed(tracer, kind, outcome, latencies, operation, world, spec):
        outcome.attempted += 1
        clock = time.perf_counter
        try:
            if tracer is None:
                started = clock()
                error = operation(world, spec)
                elapsed = clock() - started
            else:
                tracer.kind = kind
                set_trace(f"{kind}-{outcome.attempted}")
                started = clock()
                error = tracer.sync_span(f"op.{kind}", operation, world,
                                         spec)
                elapsed = clock() - started
        except Exception as exc:  # noqa: BLE001 - an untyped error fails
            outcome.fail(f"{kind} {spec.manifest.name}: "
                         f"{type(exc).__name__}: {exc}")
            return
        latencies.append(elapsed * 1000.0)
        outcome.e2e_s += elapsed
        if error is not None:
            outcome.fail(f"{kind} {spec.manifest.name}: {error}")

    @staticmethod
    def _author(world: PlayerWorld, spec: AppSpec) -> str | None:
        package = world.authoring.build_package(
            spec.manifest, permission_file=spec.permissions,
            encrypt_ids=spec.encrypt_ids,
        )
        data = package.data
        if spec.tampered:
            data = tamper(data, spec.manifest.name)
        world.server.publish(spec.path, data)
        if not package.signed \
                or len(package.encrypted_ids) != len(spec.encrypt_ids):
            return (f"package signed={package.signed} with "
                    f"{len(package.encrypted_ids)} encrypted regions, "
                    f"expected {len(spec.encrypt_ids)}")
        return None

    @staticmethod
    def _launch(world: PlayerWorld, spec: AppSpec) -> str | None:
        """One launch; returns why its outcome is wrong, if it is."""
        data = world.client.fetch(spec.path)
        try:
            application = world.pipeline.open_package(data)
        except ApplicationRejectedError:
            return None if spec.tampered else "untampered package barred"
        if spec.tampered:
            return "tampered package was not barred"
        session = world.engine.execute(application)
        if not session.trusted:
            return "session is not trusted"
        if not session.grants.has(PERM_RETURN_CHANNEL):
            return "trusted application lacks its requested grant"
        for name, value in spec.expected.items():
            if session.script_globals.get(name) != value:
                return (f"script state {name}="
                        f"{session.script_globals.get(name)!r}, "
                        f"expected {value!r}")
        return None

    @staticmethod
    def layer_counts(world, outcome: Outcome, tracer) -> dict:
        """Per-layer figures only this workload knows how to compute."""
        regions = outcome.counts["regions_launched"]
        calls = tracer.total("xmlenc.decrypt_calls", kinds=("launch",))
        return {"xmlenc.decrypts_per_region":
                calls / regions if regions else 0.0}
