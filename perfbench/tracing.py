"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: :meth:`Tracer.install`
replaces the public functions listed in :data:`SYNC_TARGETS`,
:data:`ASYNC_TARGETS` and :data:`PROVIDER_METHODS` with timing
wrappers, and :meth:`Tracer.uninstall` puts the originals back.

* Class methods are wrapped on the class, so every caller sees the
  wrapper whatever name it imported.
* Module functions are re-bound in every loaded ``repro`` module that
  holds them (``from repro.xmlcore.c14n import canonicalize_into``
  makes a second binding in the importing module).
* Crypto providers are wrapped per instance, so the pure and the
  accelerated provider are both covered and an inherited method (the
  accelerated provider's pure RSA decrypt) is caught too.

A span is ``(parent, name, start, end, trace, waits)``.  Synchronous
spans are *busy* spans: on one thread they nest strictly, so a busy
span's self time is its duration minus its busy children.  Coroutine
spans (``OverloadShield.run``, ``AdmissionController.admit``, the
XKMS handler, the client operation) are *waiting* spans: other tasks
run inside their interval, so they never count as busy time and are
reported as waits instead.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _length(args, result):
    return len(args[0])


def _result_length(args, result):
    return len(result)


def _result_count(args, result):
    return result


def _references(args, result):
    return len(result.references)


def _instructions(args, result):
    return result.instructions


def _one(args, result):
    return 1


#: ``(module, qualified name, metric, counter, amount)`` of synchronous
#: layer entry points.  Several entry points may feed one metric;
#: *counter*, when set, is incremented by ``amount(args, result)``.
SYNC_TARGETS = (
    ("repro.network.server", "DownloadClient.fetch", "network.fetch",
     None, None),
    ("repro.network.server", "MuxFrame.encode", "network.mux_encode",
     "network.wire_bytes", _result_length),
    ("repro.network.server", "decode_mux", "network.mux_decode",
     "network.frames", _one),
    ("repro.xmlcore.parser", "parse_document", "xmlcore.parse",
     "xmlcore.parse_bytes", _length),
    ("repro.xmlcore.parser", "parse_element", "xmlcore.parse",
     "xmlcore.parse_bytes", _length),
    ("repro.xmlcore.c14n", "canonicalize", "xmlcore.c14n",
     "xmlcore.c14n_bytes", _result_length),
    ("repro.xmlcore.c14n", "canonicalize_into", "xmlcore.c14n",
     "xmlcore.c14n_bytes", _result_count),
    ("repro.xmlcore.c14n", "digest_canonical", "xmlcore.c14n",
     None, None),
    ("repro.xmlcore.serializer", "serialize", "xmlcore.serialize",
     None, None),
    ("repro.xmlcore.serializer", "serialize_bytes", "xmlcore.serialize",
     None, None),
    ("repro.dsig.verifier", "Verifier.verify", "dsig.verify",
     "dsig.references", _references),
    ("repro.dsig.signer", "Signer.sign_references", "dsig.sign",
     None, None),
    ("repro.xmlenc.decryptor", "Decryptor.decrypt_in_place",
     "xmlenc.decrypt", None, None),
    ("repro.xmlenc.decryptor", "Decryptor.decrypt_element",
     "xmlenc.decrypt", None, None),
    ("repro.xmlenc.decryptor", "Decryptor.decrypt_to_bytes",
     "xmlenc.decrypt", "xmlenc.decrypt_calls", _one),
    ("repro.xmlenc.encryptor", "Encryptor.generate_cek", "xmlenc.encrypt",
     None, None),
    ("repro.xmlenc.encryptor", "Encryptor.make_encrypted_key",
     "xmlenc.encrypt", None, None),
    ("repro.xmlenc.encryptor", "Encryptor.encrypt_element",
     "xmlenc.encrypt", None, None),
    ("repro.certs.store", "TrustStore.validate_chain", "certs.chain",
     None, None),
    ("repro.permissions.request_file", "PlatformPermissionPolicy.decide",
     "permissions.decide", None, None),
    ("repro.markup.script_parser", "parse_script", "markup.script_parse",
     None, None),
    ("repro.markup.script_interp", "Interpreter.run", "markup.script_run",
     "markup.instructions", _instructions),
    ("repro.markup.script_interp", "Interpreter.call_function",
     "markup.script_run", None, None),
    ("repro.markup.smil", "parse_smil", "markup.smil", None, None),
    ("repro.markup.smil", "Presentation.schedule", "markup.smil",
     None, None),
    ("repro.markup.smil", "Presentation.validate_regions", "markup.smil",
     None, None),
    ("repro.core.playback_pipeline", "PlaybackPipeline.open_package",
     "core.open_package", None, None),
    ("repro.player.engine", "InteractiveApplicationEngine.execute",
     "player.execute", None, None),
    ("repro.core.authoring_pipeline", "AuthoringPipeline.build_package",
     "core.build_package", None, None),
    ("repro.xkms.messages", "XKMSRequest.to_xml", "xkms.request_encode",
     None, None),
    ("repro.xkms.messages", "XKMSRequest.from_xml", "xkms.request_decode",
     None, None),
    ("repro.xkms.messages", "XKMSResult.to_xml", "xkms.result_encode",
     None, None),
    ("repro.xkms.messages", "XKMSResult.from_xml", "xkms.result_decode",
     None, None),
    ("repro.primitives.keys", "RSAPublicKey.fingerprint",
     "xkms.cache_key", None, None),
    ("repro.xkms.server", "TrustServer.handle", "xkms.lookup", None, None),
)

#: Coroutine entry points: recorded as waiting spans.  The XKMS
#: handler is wrapped only so the shield's own wait excludes it.
ASYNC_TARGETS = (
    ("repro.resilience.service", "OverloadShield.run",
     "resilience.shield"),
    ("repro.resilience.service", "AdmissionController.admit",
     "resilience.admission_wait"),
    ("repro.xkms.service", "AsyncTrustService.handle_request",
     "xkms.handle"),
)

#: Provider method -> metric.  ``hash_context``/``hmac_context`` return
#: a context whose ``update``/``digest`` calls are timed instead.
PROVIDER_METHODS = {
    "digest": "primitives.digest",
    "hmac": "primitives.digest",
    "aes_cbc_encrypt": "primitives.aes",
    "aes_cbc_decrypt": "primitives.aes",
    "aes_ctr": "primitives.aes",
    "wrap_key": "primitives.aes",
    "unwrap_key": "primitives.aes",
    "rsa_sign_digest": "primitives.rsa_private",
    "rsa_decrypt": "primitives.rsa_private",
    "rsa_verify_digest": "primitives.rsa_public",
    "rsa_encrypt": "primitives.rsa_public",
}

_DIGEST_NAMES = ("digest", "hmac")
_AES_NAMES = ("aes_cbc_encrypt", "aes_cbc_decrypt", "aes_ctr")

_trace = contextvars.ContextVar("perfbench_trace", default=None)
_async_parent = contextvars.ContextVar("perfbench_async_parent",
                                       default=None)


class TraceRef:
    """A trace id that can be filled in after spans started using it
    (the XKMS request ``Id`` is only known once a message is built or
    decoded)."""

    __slots__ = ("id",)

    def __init__(self, trace_id=None):
        self.id = trace_id


def set_trace(trace_id) -> None:
    """Start a new trace in the current context (one operation)."""
    _trace.set(TraceRef(trace_id))


def _note_request_id(request_id: str) -> None:
    ref = _trace.get()
    if ref is not None and ref.id is None:
        ref.id = request_id


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        #: outcome class of the operation running now; the workload sets
        #: it so counts can be split by outcome.
        self.kind = "op"
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording -----------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.kind, name)] += amount

    def total(self, name: str, kinds=None) -> float:
        """Sum of counter *name* over *kinds* (all kinds when None)."""
        return sum(value for (kind, counter), value in self.counts.items()
                   if counter == name and (kinds is None or kind in kinds))

    def sync_span(self, name: str, fn, *args, **kwargs):
        """Run *fn* inside a busy span called *name*."""
        stack = self._stack
        parent = stack[-1] if stack else _async_parent.get()
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans[index] = (parent, name, start, end, _trace.get(),
                                 False)

    async def async_span(self, name: str, coro_fn, *args, **kwargs):
        """Await ``coro_fn(*args)`` inside a waiting span *name*."""
        parent = _async_parent.get()
        index = len(self.spans)
        self.spans.append(None)
        token = _async_parent.set(index)
        start = self.clock()
        try:
            return await coro_fn(*args, **kwargs)
        finally:
            end = self.clock()
            _async_parent.reset(token)
            self.spans[index] = (parent, name, start, end, _trace.get(),
                                 True)

    # -- wrapper factories -----------------------------------------------------------

    def _sync_wrapper(self, fn, metric, counter, amount):
        span = self.sync_span
        count = self.count
        if metric == "xkms.request_encode":
            @functools.wraps(fn)
            def wrapper(request, *args, **kwargs):
                _note_request_id(request.request_id)
                return span(metric, fn, request, *args, **kwargs)
        elif metric == "xkms.request_decode":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                request = span(metric, fn, *args, **kwargs)
                _note_request_id(request.request_id)
                return request
        elif counter is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return span(metric, fn, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = span(metric, fn, *args, **kwargs)
                count(counter, amount(args, result))
                return result
        return wrapper

    def _async_wrapper(self, fn, metric):
        span = self.async_span
        new_trace = metric == "resilience.shield"

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if new_trace:
                # A server-side dispatch task: its spans join the
                # client's through the request Id decoded inside.
                set_trace(None)
            return await span(metric, fn, *args, **kwargs)
        return wrapper

    def _provider_wrapper(self, bound, name, metric):
        span = self.sync_span
        count = self.count
        if name in _DIGEST_NAMES:
            def wrapper(*args):
                count("primitives.digest_bytes", len(args[-1]))
                return span(metric, bound, *args)
        elif name in _AES_NAMES:
            def wrapper(key, iv, data):
                count("primitives.aes_bytes", len(data))
                return span(metric, bound, key, iv, data)
        else:
            ops = metric + "_ops"

            def wrapper(*args, **kwargs):
                count(ops)
                return span(metric, bound, *args, **kwargs)
        return wrapper

    def _context_factory(self, bound):
        tracer = self

        def factory(*args, **kwargs):
            return _TimedContext(bound(*args, **kwargs), tracer)
        return factory

    def _memo_wrapper(self, fn, which):
        """Count lookups and hits of a ``C14NDigestCache`` memo.

        The memo's ``compute`` callback is its last positional
        argument; a lookup that never calls it was a hit.
        """
        count = self.count

        @functools.wraps(fn)
        def wrapper(cache, *args):
            *head, compute = args
            computed = []

            def tracked_compute():
                computed.append(True)
                return compute()
            result = fn(cache, *head, tracked_compute)
            count(f"perf.{which}_lookups")
            if not computed:
                count(f"perf.{which}_hits")
            return result
        return wrapper

    def _attempt_wrapper(self, fn):
        count = self.count

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            count("xkms.client_attempts")
            return await fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall ---------------------------------------------------------

    def _patch_attr(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr),
                              attr in owner.__dict__))
        setattr(owner, attr, value)

    def _patch_class_member(self, cls, attr, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch_attr(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._patch_attr(cls, attr, make(raw))

    def _patch_function(self, module, attr, make) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._patch_attr(loaded, binding, wrapper)

    def _install(self, module_name, qualname, make) -> None:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            self._patch_class_member(getattr(module, class_name), attr,
                                     make)
        else:
            self._patch_function(module, qualname, make)

    def install(self, providers) -> None:
        """Wrap every target; *providers* are the provider instances."""
        for module_name, qualname, metric, counter, amount in SYNC_TARGETS:
            self._install(module_name, qualname,
                          functools.partial(self._sync_wrapper,
                                            metric=metric, counter=counter,
                                            amount=amount))
        for module_name, qualname, metric in ASYNC_TARGETS:
            self._install(module_name, qualname,
                          functools.partial(self._async_wrapper,
                                            metric=metric))
        from repro.perf.cache import C14NDigestCache
        self._patch_class_member(
            C14NDigestCache, "signature_verification",
            functools.partial(self._memo_wrapper, which="sigcheck"))
        self._patch_class_member(
            C14NDigestCache, "chain_validation",
            functools.partial(self._memo_wrapper, which="chain"))
        from repro.xkms.client import MuxXKMSTransport
        self._patch_class_member(MuxXKMSTransport, "__call__",
                                 self._attempt_wrapper)
        for provider in providers:
            for name, metric in PROVIDER_METHODS.items():
                self._patch_attr(provider, name, self._provider_wrapper(
                    getattr(provider, name), name, metric))
            for name in ("hash_context", "hmac_context"):
                self._patch_attr(provider, name, self._context_factory(
                    getattr(provider, name)))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._restore:
            owner, attr, original, had = self._restore.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ----------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines:
        ``[id, parent, name, trace, start_s, end_s, waiting]``."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent, name, start, end, ref, waiting = span
                trace_id = ref.id if ref is not None else None
                handle.write(json.dumps(
                    [index, parent, name, trace_id, start, end, waiting],
                    separators=(",", ":")) + "\n")


class _TimedContext:
    """Incremental hash/HMAC context whose work is timed and counted."""

    __slots__ = ("_context", "_tracer")

    def __init__(self, context, tracer: Tracer):
        self._context = context
        self._tracer = tracer

    def update(self, data) -> None:
        self._tracer.count("primitives.digest_bytes", len(data))
        self._tracer.sync_span("primitives.digest", self._context.update,
                               data)

    def digest(self) -> bytes:
        return self._tracer.sync_span("primitives.digest",
                                      self._context.digest)


def layer_times(spans) -> tuple[dict, dict]:
    """Self time per busy-span name and per waiting-span name.

    A span's self time is its duration minus its children of the same
    kind (busy or waiting).
    """
    busy: dict = defaultdict(float)
    waits: dict = defaultdict(float)
    for span in spans:
        parent, name, start, end, _ref, waiting = span
        table = waits if waiting else busy
        table[name] += end - start
        if parent is not None and spans[parent][5] == waiting:
            table[spans[parent][1]] -= end - start
    return busy, waits


def busy_metrics() -> list[str]:
    """Every busy-span metric, in table order."""
    names = [target[2] for target in SYNC_TARGETS]
    names += list(PROVIDER_METHODS.values())
    return list(dict.fromkeys(names))


WAIT_METRICS = tuple(target[2] for target in ASYNC_TARGETS
                     if target[2] != "xkms.handle")

#: Counters reported per operation: ``name -> unit``.
COUNT_METRICS = {
    "network.frames": "count/op",
    "network.wire_bytes": "B/op",
    "xmlcore.parse_bytes": "B/op",
    "xmlcore.c14n_bytes": "B/op",
    "dsig.references": "count/op",
    "primitives.digest_bytes": "B/op",
    "primitives.rsa_private_ops": "count/op",
    "primitives.rsa_public_ops": "count/op",
    "primitives.aes_bytes": "B/op",
    "markup.instructions": "count/op",
}

#: Figures a workload computes itself: ``name -> unit``.  A
#: workload that does not reach the layer reports 0.
WORKLOAD_METRICS = {
    "xmlenc.decrypts_per_region": "ratio",
    "resilience.admitted": "count/op",
    "resilience.queued": "count/op",
    "resilience.shed": "count/op",
    "xkms.cache_hit_ratio": "ratio",
    "xkms.cache_evictions": "count/op",
    "xkms.writes": "count/op",
    "xkms.client_retries": "count/op",
    "xkms.client_timeouts": "count/op",
    "xkms.faults": "count/op",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{name}_ms": "ms/op" for name in busy_metrics()}
    units.update({f"{name}_ms": "ms/op" for name in WAIT_METRICS})
    units.update(COUNT_METRICS)
    units["perf.sigcheck_hit_ratio"] = "ratio"
    units["perf.chain_hit_ratio"] = "ratio"
    units.update(WORKLOAD_METRICS)
    units.update({
        "unattributed_ms": "ms/op",
        "trace.e2e_ms": "ms/op",
        "trace.overhead_ratio": "ratio",
    })
    return units


def per_layer_metrics(tracer: Tracer, outcome, baseline,
                      workload_counts: dict) -> dict:
    """``name -> (value, unit)`` for every per-layer metric.

    Times are per operation of the traced replay.  The busy self times
    plus ``unattributed_ms`` add up to ``trace.e2e_ms`` by
    construction; ``unattributed_ms`` is what no wrapped layer covers
    (the load generator's own glue, the event loop and the virtual clock).
    """
    ops = outcome.attempted or 1
    busy, waits = layer_times(tracer.spans)
    units = per_layer_units()
    values = {}
    for name in busy_metrics():
        values[f"{name}_ms"] = busy.get(name, 0.0) * 1000.0 / ops
    for name in WAIT_METRICS:
        values[f"{name}_ms"] = waits.get(name, 0.0) * 1000.0 / ops
    for name in COUNT_METRICS:
        values[name] = tracer.total(name) / ops
    for which in ("sigcheck", "chain"):
        lookups = tracer.total(f"perf.{which}_lookups")
        values[f"perf.{which}_hit_ratio"] = \
            tracer.total(f"perf.{which}_hits") / lookups if lookups else 0.0
    for name in WORKLOAD_METRICS:
        values[name] = workload_counts.get(name, 0.0)
    layered = sum(busy.get(name, 0.0) for name in busy_metrics())
    values["unattributed_ms"] = (outcome.e2e_s - layered) * 1000.0 / ops
    values["trace.e2e_ms"] = outcome.e2e_s * 1000.0 / ops
    values["trace.overhead_ratio"] = (
        outcome.e2e_s / baseline.e2e_s if baseline.e2e_s else 0.0)
    return {name: (values[name], unit) for name, unit in units.items()}
