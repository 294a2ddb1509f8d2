"""Decrypt once per package open.

The verifier's Decryption Transform and the execution unlock used to
decrypt every region twice (RSA unwrap, AES and re-parse each time).
The ``Decryptor`` now memoises what the transform recovered and the
unlock splices copies of it.  These tests pin the call counts, the
memo's lifetime and key-change rules, the quota accounting, and that
the executed tree is the verified plaintext in nodes of its own.
"""

import pytest

from repro.core import AuthoringPipeline, PlaybackPipeline, parse_package
from repro.disc import ApplicationManifest
from repro.dsig.verifier import Verifier
from repro.errors import ApplicationRejectedError, CryptoError
from repro.primitives.keys import SymmetricKey
from repro.primitives.provider import available_providers, get_provider
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.resilience.degradation import REASON_RESOURCE
from repro.resilience.limits import ResourceGuard, ResourceLimits
from repro.xmlcore import XMLENC_NS, canonicalize, element, parse_element
from repro.xmlcore.tree import Element
from repro.xmlenc import Decryptor, Encryptor
from repro.xmlenc.structures import EncryptedData

LAYOUT = ('<layout xmlns="urn:bda:bdmv:interactive-cluster">'
          '<region regionName="main" width="2" height="2"/></layout>')


@pytest.fixture(params=[
    "pure",
    pytest.param("accelerated", marks=pytest.mark.skipif(
        "accelerated" not in available_providers(),
        reason="accelerated backends unavailable")),
])
def provider(request):
    return get_provider(request.param)


@pytest.fixture(scope="module")
def device_key():
    return generate_keypair(1024,
                            DeterministicRandomSource(b"decrypt-once"))


def build_manifest() -> ApplicationManifest:
    manifest = ApplicationManifest("decrypt-once")
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_script("var unlocked = 'twice-is-once-too-many';")
    return manifest


def markup_id(manifest: ApplicationManifest) -> str:
    return manifest.to_element().find("markup").get("Id")


def build(pki, device_key, *, encrypt=True, pre_encrypt=False) -> bytes:
    """A signed package with the code and markup regions encrypted
    after signing and/or the code region encrypted before."""
    manifest = build_manifest()
    authoring = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(),
        rng=DeterministicRandomSource(b"decrypt-once-authoring"),
    )
    return authoring.build_package(
        manifest,
        encrypt_ids=(manifest.code_id, markup_id(manifest))
        if encrypt else (),
        pre_encrypt_ids=(manifest.code_id,) if pre_encrypt else (),
    ).data


def count(root: Element, local: str) -> int:
    return sum(1 for _ in root.iter(local, XMLENC_NS))


@pytest.fixture
def calls(monkeypatch, provider):
    """Counts RSA unwraps, AES decrypts, ``decrypt_to_bytes`` calls and
    plaintext parses, and logs when verification finished."""
    tally = {"rsa": 0, "aes": 0, "decrypt": 0, "parse": 0, "events": []}

    def counting(name, fn, event=None):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            if event:
                tally["events"].append(event)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(provider, "rsa_decrypt",
                        counting("rsa", provider.rsa_decrypt))
    monkeypatch.setattr(provider, "aes_cbc_decrypt",
                        counting("aes", provider.aes_cbc_decrypt))
    monkeypatch.setattr(Decryptor, "decrypt_to_bytes", counting(
        "decrypt", Decryptor.decrypt_to_bytes, "decrypt"))
    import repro.xmlenc.decryptor as decryptor_module
    monkeypatch.setattr(decryptor_module, "parse_element", counting(
        "parse", decryptor_module.parse_element))
    verify = Verifier.verify

    def logged_verify(*args, **kwargs):
        report = verify(*args, **kwargs)
        tally["events"].append("verified")
        return report
    monkeypatch.setattr(Verifier, "verify", logged_verify)
    return tally


def playback(trust_store, device_key, provider, **kwargs):
    return PlaybackPipeline(trust_store=trust_store, device_key=device_key,
                            provider=provider, **kwargs)


def test_one_unwrap_per_encrypted_key_per_open(pki, trust_store,
                                               device_key, provider, calls):
    data = build(pki, device_key)
    root = parse_package(data).root
    regions = count(root, "EncryptedData")
    assert regions == 2
    application = playback(trust_store, device_key,
                           provider).open_package(data)
    assert application.trusted
    assert "twice-is-once-too-many" in \
        application.manifest.scripts[0].source
    assert calls["rsa"] == count(root, "EncryptedKey") == regions
    assert calls["decrypt"] == calls["aes"] == calls["parse"] == regions


def test_second_open_unwraps_again(pki, trust_store, device_key, provider,
                                   calls):
    data = build(pki, device_key)
    pipeline = playback(trust_store, device_key, provider)
    pipeline.open_package(data)
    first = calls["rsa"]
    pipeline.open_package(data)
    assert first == 2
    assert calls["rsa"] == 2 * first
    assert calls["decrypt"] == 2 * first


def test_except_region_decrypted_once_at_unlock(pki, trust_store,
                                                device_key, provider,
                                                calls):
    data = build(pki, device_key, encrypt=False, pre_encrypt=True)
    application = playback(trust_store, device_key,
                           provider).open_package(data)
    assert application.trusted
    assert calls["rsa"] == calls["decrypt"] == 1
    # The Decryption Transform left the dcrpt:Except region alone.
    assert calls["events"] == ["verified", "decrypt"]


def test_key_slot_replacement_drops_memo(rng):
    doc = element("package", None)
    secret = element("secret", None, text="level-9")
    doc.append(secret)
    right = SymmetricKey(b"right-aes-key-16")
    Encryptor(rng=rng).encrypt_element(secret, right, key_name="k")
    target = doc.find("EncryptedData", XMLENC_NS)

    decryptor = Decryptor(keys={"k": right})
    assert canonicalize(decryptor.decrypt_nodes(target)[0]) == \
        b"<secret>level-9</secret>"
    decryptor.add_key("k", SymmetricKey(b"wrong-aes-key-16"))
    # The new key's result is whatever a memo-free decryptor holding
    # only that key gives: here a failure, not the memoised plaintext.
    with pytest.raises(CryptoError) as fresh:
        Decryptor(keys={"k": b"wrong-aes-key-16"}).decrypt_nodes(target)
    with pytest.raises(type(fresh.value)):
        decryptor.decrypt_nodes(target)
    decryptor.add_key("k", right)
    assert canonicalize(decryptor.decrypt_nodes(target)[0]) == \
        b"<secret>level-9</secret>"


def test_rsa_key_change_and_explicit_key_bypass_memo(pki, device_key,
                                                     provider, calls):
    target = parse_package(build(pki, device_key)).root.find(
        "EncryptedData", XMLENC_NS)
    decryptor = Decryptor(rsa_keys=[device_key], provider=provider)
    first = decryptor.decrypt_nodes(target)
    decryptor.decrypt_nodes(target)
    assert calls["rsa"] == calls["decrypt"] == 1
    decryptor.add_rsa_key(device_key)
    decryptor.decrypt_nodes(target)
    assert calls["rsa"] == calls["decrypt"] == 2
    cek = decryptor.resolve_key(EncryptedData.from_element(target))
    explicit = decryptor.decrypt_nodes(target, key=cek)
    assert calls["decrypt"] == 3
    assert canonicalize(explicit[0]) == canonicalize(first[0])


def all_nodes(node):
    yield node
    for child in getattr(node, "children", ()):
        yield from all_nodes(child)


def top(node):
    while node.parent is not None:
        node = node.parent
    return node


def test_unlocked_tree_matches_memo_free_decrypt_and_shares_no_nodes(
        pki, trust_store, device_key, provider, monkeypatch):
    data = build(pki, device_key)
    roots = []
    decrypt_in_place = Decryptor.decrypt_in_place

    def capture(self, root, *args, **kwargs):
        roots.append(root)
        return decrypt_in_place(self, root, *args, **kwargs)
    monkeypatch.setattr(Decryptor, "decrypt_in_place", capture)
    playback(trust_store, device_key, provider).open_package(data)
    monkeypatch.undo()

    *working, executed = roots
    assert working, "the Decryption Transform ran no decryption"
    fresh = parse_package(data).root
    assert Decryptor(rsa_keys=[device_key],
                     provider=provider).decrypt_in_place(fresh) == 2
    assert canonicalize(executed) == canonicalize(fresh)

    executed_ids = {id(node) for node in all_nodes(executed)}
    for node in working:
        working_ids = {id(n) for n in all_nodes(top(node))}
        assert not executed_ids & working_ids


def plaintext_size(data: bytes, device_key) -> int:
    decryptor = Decryptor(rsa_keys=[device_key])
    root = parse_package(data).root
    return sum(len(decryptor.decrypt_to_bytes(node))
               for node in root.iter("EncryptedData", XMLENC_NS))


def test_quota_charges_each_region_once(pki, trust_store, device_key,
                                        provider):
    data = build(pki, device_key)
    size = plaintext_size(data, device_key)
    pipeline = playback(
        trust_store, device_key, provider,
        limits=ResourceLimits.default().replace(
            max_decrypt_output_bytes=size + size // 2),
    )
    application = pipeline.open_package(data)
    assert application.trusted
    assert not pipeline.degradation.for_component("package")


def test_quota_below_plaintext_still_bars(pki, trust_store, device_key,
                                          provider):
    data = build(pki, device_key)
    size = plaintext_size(data, device_key)
    pipeline = playback(
        trust_store, device_key, provider,
        limits=ResourceLimits.default().replace(
            max_decrypt_output_bytes=size - 1),
    )
    with pytest.raises(ApplicationRejectedError):
        pipeline.open_package(data)
    events = pipeline.degradation.for_component("package")
    assert events and events[-1].reason == REASON_RESOURCE


def test_guard_charged_once_per_region(pki, device_key, provider):
    data = build(pki, device_key)
    size = plaintext_size(data, device_key)
    guard = ResourceGuard(ResourceLimits.default())
    decryptor = Decryptor(rsa_keys=[device_key], provider=provider,
                          guard=guard)
    root = parse_package(data, guard=guard).root
    for _ in range(2):
        decryptor.decrypt_in_place(root.copy())
    assert guard.decrypt_output_bytes == size
