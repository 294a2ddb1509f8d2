"""The Decryptor component (Fig 11): key resolution and in-place decryption.

The player "decrypts the application and resources on execution" (§4);
this class resolves the needed keys (named key slots, unwrap of
transported CEKs, RSA key transport), decrypts EncryptedData, and —
for XML targets — splices the recovered markup back into the tree.

Each XML-typed EncryptedData is decrypted once per ``Decryptor``: the
nodes recovered by the verifier's Decryption Transform are memoised
and the execution unlock splices copies of them, so a package opened
by :class:`~repro.core.playback_pipeline.PlaybackPipeline` pays one
RSA unwrap, one AES pass and one parse per region.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import DecryptionError, EncryptedDataFormatError
from repro.perf import metrics
from repro.primitives.keys import RSAPrivateKey, SymmetricKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.xmlcore import XMLENC_NS, parse_element
from repro.xmlcore.tree import Element, Node
from repro.xmlenc import algorithms
from repro.xmlenc.encryptor import CONTENT_WRAPPER
from repro.xmlenc.structures import EncryptedData

Resolver = Callable[[str], bytes]


class Decryptor:
    """Decrypts EncryptedData structures.

    Args:
        keys: named symmetric keys (``ds:KeyName`` → key) — the player's
            key slots.
        rsa_keys: RSA private keys to try for ``rsa-1_5`` transported
            CEKs.
        resolver: URI → bytes for CipherReference (detached ciphertext).
        provider: crypto provider override.
        guard: optional
            :class:`~repro.resilience.limits.ResourceGuard`; every
            decrypted plaintext is charged against its cumulative
            decrypt-output quota and expansion-ratio cap, and the
            recovered XML is re-parsed under the same guard — so a
            decrypt bomb (tiny package, huge or deeply nested
            plaintext) trips a typed limit instead of exhausting the
            device.

    Decrypt once: :meth:`decrypt_nodes` memoises the nodes it recovers
    from an XML-typed EncryptedData whose ciphertext is embedded,
    keyed on everything that decides the plaintext — the algorithm,
    the Type, the key source (``ds:KeyName``, or the EncryptedKey's
    algorithm, CipherValue and KeyName) and the ciphertext octets.  A
    repeat decrypts nothing and charges nothing: it returns fresh
    copies, so no two callers share a node and the executed plaintext
    is the one that was verified.  The memo lives as long as the
    decryptor (one package open in the playback pipeline); ``add_key``
    and ``add_rsa_key`` clear it, and a call with an explicit ``key``
    or a CipherReference bypasses it.
    """

    def __init__(self, keys: dict[str, SymmetricKey | bytes] | None = None,
                 rsa_keys: list[RSAPrivateKey] | None = None,
                 resolver: Resolver | None = None,
                 provider: CryptoProvider | None = None,
                 guard=None):
        self._keys: dict[str, SymmetricKey] = {}
        # Decrypt-once memo: plaintext-deciding inputs -> recovered
        # nodes, which are never handed out themselves (see class doc).
        self._recovered: dict[tuple, list[Node]] = {}
        for name, key in (keys or {}).items():
            self.add_key(name, key)
        self._rsa_keys = list(rsa_keys or [])
        self._resolver = resolver
        # Resolved lazily so a provider switch (REPRO_PROVIDER /
        # set_default_provider) takes effect on existing decryptors.
        self._provider = provider
        self.guard = guard

    @property
    def provider(self) -> CryptoProvider:
        """The pinned provider, or the current process default."""
        return self._provider or get_provider()

    @provider.setter
    def provider(self, value: CryptoProvider | None) -> None:
        self._provider = value

    def add_key(self, name: str, key: SymmetricKey | bytes) -> None:
        """Register a named key slot."""
        if isinstance(key, bytes):
            key = SymmetricKey(key, "aes")
        self._keys[name] = key
        self._recovered.clear()

    def add_rsa_key(self, key: RSAPrivateKey) -> None:
        self._rsa_keys.append(key)
        self._recovered.clear()

    # -- key resolution --------------------------------------------------------------

    def resolve_key(self, data: EncryptedData,
                    explicit_key=None) -> SymmetricKey:
        """Find the content-encryption key for *data*."""
        if explicit_key is not None:
            if isinstance(explicit_key, bytes):
                return SymmetricKey(explicit_key, "aes")
            return explicit_key
        if data.encrypted_key is not None:
            return self._unwrap(data)
        if data.key_name:
            try:
                return self._keys[data.key_name]
            except KeyError:
                raise DecryptionError(
                    f"no key slot named {data.key_name!r}"
                ) from None
        raise DecryptionError(
            "EncryptedData names no key and none was supplied"
        )

    def _unwrap(self, data: EncryptedData) -> SymmetricKey:
        encrypted_key = data.encrypted_key
        assert encrypted_key is not None
        algorithm = encrypted_key.algorithm
        if algorithm == algorithms.RSA_1_5:
            last_error: Exception | None = None
            for key in self._rsa_keys:
                try:
                    cek = algorithms.unwrap_cek(
                        algorithm, key, encrypted_key.cipher_value,
                        self.provider,
                    )
                    return SymmetricKey(cek, "aes")
                except DecryptionError as exc:
                    last_error = exc
            raise DecryptionError(
                f"no RSA key decrypts the transported CEK: {last_error}"
            )
        if encrypted_key.key_name:
            kek = self._keys.get(encrypted_key.key_name)
            if kek is None:
                raise DecryptionError(
                    f"no KEK slot named {encrypted_key.key_name!r}"
                )
            cek = algorithms.unwrap_cek(
                algorithm, kek, encrypted_key.cipher_value, self.provider,
            )
            return SymmetricKey(cek, "aes")
        raise DecryptionError("EncryptedKey names no KEK")

    # -- decryption -------------------------------------------------------------------

    def _ciphertext(self, data: EncryptedData) -> bytes:
        if data.cipher_value is not None:
            return data.cipher_value
        assert data.cipher_reference is not None
        if self._resolver is None:
            raise DecryptionError(
                f"CipherReference {data.cipher_reference!r} but no "
                "resolver configured"
            )
        try:
            return self._resolver(data.cipher_reference)
        except Exception as exc:
            raise DecryptionError(
                f"cannot fetch ciphertext {data.cipher_reference!r}: {exc}"
            ) from exc

    def decrypt_to_bytes(self, data: EncryptedData | Element,
                         key=None) -> bytes:
        """Decrypt and return the raw plaintext octets."""
        if isinstance(data, Element):
            data = EncryptedData.from_element(data)
        cek = self.resolve_key(data, key)
        ciphertext = self._ciphertext(data)
        if self.guard is not None:
            self.guard.check_deadline()
        plaintext = algorithms.decrypt_block_data(
            data.algorithm, cek, ciphertext, self.provider,
        )
        if self.guard is not None:
            self.guard.charge_decrypt_output(len(plaintext), len(ciphertext))
        return plaintext

    @staticmethod
    def _memo_key(data: EncryptedData) -> tuple | None:
        """Everything that decides *data*'s plaintext, or ``None`` when
        the ciphertext is detached (a CipherReference is not memoised)."""
        if data.cipher_value is None:
            return None
        transported = data.encrypted_key
        return (
            data.algorithm, data.data_type, data.key_name,
            None if transported is None else (
                transported.algorithm, transported.cipher_value,
                transported.key_name,
            ),
            data.cipher_value,
        )

    def decrypt_nodes(self, node: Element, key=None) -> list[Node]:
        """Decrypt an EncryptedData *element* back into XML nodes.

        For ``Type=Element`` the single recovered element is returned;
        for ``Type=Content`` the recovered child nodes.  Raises for
        non-XML types.  Without an explicit *key* a repeat of an
        already-recovered EncryptedData returns copies from the memo.
        """
        data = EncryptedData.from_element(node)
        memo_key = self._memo_key(data) if key is None else None
        recovered = self._recovered.get(memo_key)  # None is never stored
        if recovered is None:
            recovered = self._recover(data, key)
            if memo_key is not None:
                self._recovered[memo_key] = recovered
        elif self.guard is not None:
            self.guard.check_deadline()
        return [child.copy() for child in recovered]

    def _recover(self, data: EncryptedData, key) -> list[Node]:
        """Decrypt and parse *data*; the returned nodes are the memo's
        own and are only ever handed out as copies."""
        from repro.errors import XMLError
        plaintext = self.decrypt_to_bytes(data, key)
        if data.data_type not in (algorithms.TYPE_ELEMENT,
                                  algorithms.TYPE_CONTENT):
            raise DecryptionError(
                f"EncryptedData type {data.data_type!r} is not XML"
            )
        # XMLEnc padding only inspects one octet, so a wrong key can slip
        # through to the parser; surface garbage plaintext as a
        # decryption failure rather than a syntax error.
        try:
            recovered = parse_element(plaintext, guard=self.guard)
        except XMLError as exc:
            raise DecryptionError(
                f"decrypted plaintext is not well-formed XML "
                f"(wrong key or tampered ciphertext): {exc}"
            ) from None
        if data.data_type == algorithms.TYPE_ELEMENT:
            return [recovered]
        if recovered.local != CONTENT_WRAPPER:
            raise EncryptedDataFormatError(
                "content ciphertext lacks the content wrapper"
            )
        return list(recovered.children)

    def decrypt_element(self, node: Element, key=None) -> list[Node]:
        """Decrypt *node* and splice the plaintext nodes into its place.

        Returns the replacement nodes.  This is the transform the
        verifier's decryption-transform hook uses.
        """
        replacements = self.decrypt_nodes(node, key)
        parent = node.parent
        if isinstance(parent, Element):
            index = parent.index(node)
            parent.remove(node)
            for offset, replacement in enumerate(replacements):
                parent.insert(index + offset, replacement)
        return replacements

    def decrypt_in_place(self, root: Element, key=None, *,
                         except_ids: tuple[str, ...] = ()) -> int:
        """Decrypt every XML-typed EncryptedData under *root*.

        Repeats until no decryptable structures remain (handles nested
        super-encryption).  EncryptedData whose Id appears in
        *except_ids* is left alone.  Returns the number of structures
        decrypted.
        """
        with metrics.timer("xmlenc.decrypt_in_place"):
            count = 0
            while True:
                target = None
                for candidate in root.iter("EncryptedData", XMLENC_NS):
                    if candidate is root:
                        continue
                    if candidate.get("Id") in except_ids:
                        continue
                    if candidate.get("Type") in (
                        algorithms.TYPE_ELEMENT, algorithms.TYPE_CONTENT,
                    ):
                        target = candidate
                        break
                if target is None:
                    metrics.counter(
                        "xmlenc.decrypted_elements"
                    ).increment(count)
                    return count
                self.decrypt_element(target, key)
                count += 1
