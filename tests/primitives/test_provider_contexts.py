"""Incremental hash/HMAC contexts and provider-routed RSA digests.

The streaming C14N path feeds canonical chunks into
``CryptoProvider.hash_context``; these tests pin the contract — chunked
updates must agree with one-shot digests, both providers must agree
with each other, and the accelerated RSA fast path must be bit-
identical to the pure implementation (PKCS#1 v1.5 is deterministic).
"""

import os

import pytest

from repro.errors import CryptoError, DecryptionError
from repro.primitives.keys import RSAPrivateKey
from repro.primitives.provider import (
    available_providers, get_provider, set_default_provider,
)
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair

accelerated_only = pytest.mark.skipif(
    "accelerated" not in available_providers(),
    reason="accelerated backends unavailable",
)

CHUNKS = [b"", b"a", b"chunk-two", b"x" * 4096, "café".encode(), b"end"]


@pytest.mark.parametrize("name", ["sha1", "sha256"])
def test_hash_context_matches_one_shot(name):
    for provider_name in available_providers():
        provider = get_provider(provider_name)
        context = provider.hash_context(name)
        for chunk in CHUNKS:
            context.update(chunk)
        assert context.digest() == provider.digest(
            name, b"".join(CHUNKS)
        )


@accelerated_only
@pytest.mark.parametrize("name", ["sha1", "sha256"])
def test_hash_context_cross_provider(name):
    digests = set()
    for provider_name in ("pure", "accelerated"):
        context = get_provider(provider_name).hash_context(name)
        for chunk in CHUNKS:
            context.update(chunk)
        digests.add(context.digest())
    assert len(digests) == 1


@pytest.mark.parametrize("name", ["sha1", "sha256"])
def test_hmac_context_matches_one_shot(name):
    key = b"K" * 20
    for provider_name in available_providers():
        provider = get_provider(provider_name)
        context = provider.hmac_context(name, key)
        for chunk in CHUNKS:
            context.update(chunk)
        assert context.digest() == provider.hmac(
            name, key, b"".join(CHUNKS)
        )


def test_hash_context_rejects_unknown_algorithm():
    for provider_name in available_providers():
        provider = get_provider(provider_name)
        with pytest.raises(CryptoError):
            provider.hash_context("md5")
        with pytest.raises(CryptoError):
            provider.hmac_context("md5", b"k")


@pytest.fixture(scope="module")
def keypair():
    rng = DeterministicRandomSource(b"provider-context-tests")
    private = generate_keypair(bits=1024, rng=rng)
    return private, private.public_key()


@accelerated_only
def test_rsa_sign_digest_bit_identical(keypair):
    private, public = keypair
    pure = get_provider("pure")
    accel = get_provider("accelerated")
    for name in ("sha1", "sha256"):
        digest = pure.digest(name, b"signed content")
        sig_pure = pure.rsa_sign_digest(private, digest, name)
        sig_accel = accel.rsa_sign_digest(private, digest, name)
        assert sig_pure == sig_accel
        assert accel.rsa_verify_digest(public, digest, sig_accel, name)
        assert pure.rsa_verify_digest(public, digest, sig_accel, name)


@accelerated_only
def test_rsa_verify_digest_rejects_tampering(keypair):
    private, public = keypair
    accel = get_provider("accelerated")
    digest = accel.digest("sha256", b"payload")
    signature = accel.rsa_sign_digest(private, digest, "sha256")
    bad_sig = bytes([signature[0] ^ 1]) + signature[1:]
    assert not accel.rsa_verify_digest(public, digest, bad_sig, "sha256")
    other = accel.digest("sha256", b"other payload")
    assert not accel.rsa_verify_digest(public, other, signature, "sha256")
    assert not accel.rsa_verify_digest(
        public, digest, signature[:-1], "sha256"
    )


@accelerated_only
def test_rsa_sign_without_crt_factors_falls_back(keypair):
    private, public = keypair
    no_crt = RSAPrivateKey(n=private.n, e=private.e, d=private.d)
    accel = get_provider("accelerated")
    digest = accel.digest("sha256", b"no CRT factors")
    signature = accel.rsa_sign_digest(no_crt, digest, "sha256")
    assert signature == get_provider("pure").rsa_sign_digest(
        no_crt, digest, "sha256"
    )
    assert accel.rsa_verify_digest(public, digest, signature, "sha256")


@accelerated_only
def test_rsa_decrypt_wrong_key_raises(keypair):
    """The accelerated provider keeps the pure RSA decrypt: a block made
    for another key must raise, where the native decrypt's implicit
    rejection would hand back random octets."""
    private, _ = keypair
    other = generate_keypair(
        bits=1024, rng=DeterministicRandomSource(b"provider-other-key"))
    accel = get_provider("accelerated")
    ciphertext = accel.rsa_encrypt(
        other.public_key(), b"content-key-16oc",
        DeterministicRandomSource(b"provider-rsa-pad"))
    with pytest.raises(DecryptionError):
        accel.rsa_decrypt(private, ciphertext)
    assert accel.rsa_decrypt(other, ciphertext) == b"content-key-16oc"


def test_env_override_selects_provider():
    # REPRO_PROVIDER is applied at import; simulate the hook directly.
    from repro.primitives import provider as provider_module

    original = get_provider().name
    try:
        os.environ["REPRO_PROVIDER"] = "pure"
        provider_module._apply_env_override()
        assert get_provider().name == "pure"
    finally:
        os.environ.pop("REPRO_PROVIDER", None)
        set_default_provider(original)
