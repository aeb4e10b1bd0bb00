"""Hashing helpers shared by the ADS layer and the chain simulator.

The real system uses keccak-256 inside the EVM and SHA-256 off chain; for the
reproduction both are modelled with SHA-256 (the security argument only needs a
collision-resistant hash).  The helper names keep the EVM terminology so the
contract code reads naturally.
"""

from __future__ import annotations

import struct
from hashlib import sha256
from typing import Iterable

from repro.common.encoding import Value, encode_value

DIGEST_SIZE_BYTES = 32
EMPTY_DIGEST = b"\x00" * DIGEST_SIZE_BYTES

#: A field's length as the 8-byte big-endian prefix that :func:`hash_words`
#: puts before each field (``len(field).to_bytes(8, "big")``).
_field_length = struct.Struct(">Q").pack


def keccak(data: bytes) -> bytes:
    """Hash ``data`` to a 32-byte digest (SHA-256 stands in for keccak-256)."""
    return sha256(data).digest()


def hash_pair(left: bytes, right: bytes) -> bytes:
    """Hash two child digests into a parent digest (Merkle interior node):
    ``keccak(left + right)``, in one call."""
    return sha256(left + right).digest()


def hash_words(*values: Value) -> bytes:
    """Hash a sequence of values after normalising each to bytes.

    A length prefix is added per field so that ``hash_words(b"ab", b"c")`` and
    ``hash_words(b"a", b"bc")`` differ (no ambiguity attacks on the leaf
    encoding).
    """
    preimage = []
    for value in values:
        encoded = encode_value(value)
        preimage.append(len(encoded).to_bytes(8, "big"))
        preimage.append(encoded)
    return sha256(b"".join(preimage)).digest()


def hash_record(key: str, value: bytes, state_prefix: str) -> bytes:
    """Hash a GRuB KV record leaf: ``(replication-state prefix, key, value)``.

    The replication state is part of the authenticated payload because GRuB
    prefixes every data key with its R/NR bit (Section 3.2 of the paper).
    The digest is ``hash_words(state_prefix, key, value)``'s: the same three
    length-prefixed fields, built here directly from the ``str`` prefix and
    key and the ``bytes`` value, hashed in one call.
    """
    prefix = state_prefix.encode("utf-8")
    key_bytes = key.encode("utf-8")
    return sha256(
        b"".join(
            (
                _field_length(len(prefix)),
                prefix,
                _field_length(len(key_bytes)),
                key_bytes,
                _field_length(len(value)),
                value,
            )
        )
    ).digest()


def clear_leaf_cache() -> None:
    """Do nothing: leaf digests are not memoized.  Kept only for
    ``benchmarks/suite/harness.py::_fresh_state``, which still calls it."""


def combine_digests(digests: Iterable[bytes]) -> bytes:
    """Fold an iterable of digests into one (used for epoch-level summaries)."""
    hasher = sha256()
    for digest in digests:
        hasher.update(digest)
    return hasher.digest()

