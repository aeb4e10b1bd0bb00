"""Data-owner signatures over published root hashes.

For freshness, the data owner periodically publishes a signed root hash; the
storage-manager contract stores the latest digest and only accepts records
whose proofs verify against it.  The signature here is an HMAC keyed by the
DO's secret — the protocol only needs unforgeability by the SP, which the HMAC
provides in the simulation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.common.errors import IntegrityError
from repro.common.hashing import sign_digest, verify_signature


@dataclass(frozen=True)
class SignedRoot:
    """A root hash together with the DO's signature and a monotonic epoch number."""

    root: bytes
    signature: bytes
    epoch: int


class RootSigner:
    """Holds the DO's signing secret and produces/verifies signed roots."""

    def __init__(self, secret: bytes | None = None) -> None:
        self._secret = secret if secret is not None else os.urandom(32)
        self._epoch = 0

    def sign(self, root: bytes) -> SignedRoot:
        """Sign ``root``, stamping it with the next epoch number."""
        self._epoch += 1
        return SignedRoot(root=root, signature=sign_digest(self._secret, root), epoch=self._epoch)

    def verify(self, signed: SignedRoot) -> bool:
        """Return whether ``signed`` was produced by this signer."""
        return verify_signature(self._secret, signed.root, signed.signature)

    def require_valid(self, signed: SignedRoot) -> None:
        """Raise :class:`IntegrityError` unless the signature verifies."""
        if not self.verify(signed):
            raise IntegrityError("root hash signature does not verify")
