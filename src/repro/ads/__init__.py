"""Authenticated data structures (ADS) for the GRuB data plane.

The storage provider is untrusted: it may forge, replay, omit or fork the
records it delivers to the blockchain.  GRuB defends against this with a
Merkle tree built over the KV records (Section 3.3 and Appendix B.1).  The
paper groups the leaves by replication state and sorts them by key; here each
record keeps the slot it was appended to and its state is hashed into its leaf
(see :mod:`repro.ads.authenticated_kv`).  The data owner keeps the root hash;
the storage-manager contract holds a copy and verifies every delivered record
against it.  The contract takes a new root only from the data owner (or
the gateway hosting it) as the transaction's sender, so the root needs no
signature of its own.

Modules:

* :mod:`repro.ads.merkle` — a generic Merkle tree over an ordered list of
  leaves, with one-leaf proofs and one multiproof for any set of leaves,
* :mod:`repro.ads.authenticated_kv` — the GRuB-specific layout (append-only
  slots), the batched epoch write, the multiproof a deliver batch is
  answered with, and the baseline / delta a store changes interpreter with.
"""

from repro.ads.merkle import (
    MerkleProof,
    MerkleTree,
    MultiProof,
    multiproof_shape,
    verify_membership,
    verify_multiproof,
)
from repro.ads.authenticated_kv import (
    AuthenticatedKVStore,
    BatchQueryResult,
    QueryResult,
)

__all__ = [
    "MerkleTree",
    "MerkleProof",
    "MultiProof",
    "multiproof_shape",
    "verify_membership",
    "verify_multiproof",
    "AuthenticatedKVStore",
    "BatchQueryResult",
    "QueryResult",
]
