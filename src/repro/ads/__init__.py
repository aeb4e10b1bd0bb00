"""Authenticated data structures (ADS) for the GRuB data plane.

The storage provider is untrusted: it may forge, replay, omit or fork the
records it delivers to the blockchain.  GRuB defends against this with a
Merkle tree built over the KV records, laid out as the paper describes
(Section 3.3 and Appendix B.1): records are first grouped by replication state
(NR group before R group) and sorted by data key within each group.  The data
owner keeps the root hash; the storage-manager contract holds a copy and
verifies every delivered record against it.

Modules:

* :mod:`repro.ads.merkle` — a generic Merkle tree with membership, batch
  (multiproof) and range proofs over an ordered list of leaves,
* :mod:`repro.ads.authenticated_kv` — the GRuB-specific layout, update
  protocol (DO-side verification + root recomputation), query proofs, and
  the baseline / delta a store changes interpreter with,
* :mod:`repro.ads.signer` — the DO's signature over published root hashes.
"""

from repro.ads.merkle import (
    MerkleProof,
    MerkleTree,
    MultiProof,
    RangeProof,
    multiproof_shape,
    verify_membership,
    verify_multiproof,
    verify_range,
)
from repro.ads.authenticated_kv import (
    AuthenticatedKVStore,
    BatchQueryResult,
    QueryResult,
    UpdateWitness,
)
from repro.ads.signer import RootSigner, SignedRoot

__all__ = [
    "MerkleTree",
    "MerkleProof",
    "MultiProof",
    "RangeProof",
    "multiproof_shape",
    "verify_membership",
    "verify_multiproof",
    "verify_range",
    "AuthenticatedKVStore",
    "BatchQueryResult",
    "QueryResult",
    "UpdateWitness",
    "RootSigner",
    "SignedRoot",
]
