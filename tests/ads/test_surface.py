"""The ADS classes' public surface is what GRuB runs, and nothing more.

Every public method and property of :class:`MerkleTree` and
:class:`AuthenticatedKVStore` is listed here with its caller in ``src/``, or
as a test reference: a slower single path the batched one is checked against,
or a lookup tests read the store through.  A new public name fails this test
until its entry names the caller that needs it.  The fields of
:class:`StoreDelta`, which crosses the lane boundary in every install and
migration, are pinned the same way, each with the step that reads it.
"""

from __future__ import annotations

from dataclasses import fields
from types import FunctionType

from repro.ads.authenticated_kv import AuthenticatedKVStore, StoreDelta
from repro.ads.merkle import MerkleTree

MERKLE_TREE = {
    "from_values",  # test reference: a tree over hashed values
    "nodes",  # AuthenticatedKVStore.export_delta
    "patch",  # AuthenticatedKVStore.apply_delta
    "root",  # AuthenticatedKVStore.root, apps/btc/bitcoin.py block headers
    "leaf_count",  # AuthenticatedKVStore._insert_record, .export_delta
    "depth",  # test reference: tree height against the proof length
    "leaf",  # test reference: one leaf digest
    "leaves",  # test reference: every leaf digest, for multiproof checks
    "prove",  # apps/btc/bitcoin.py SPV proofs; test reference for prove_many
    "prove_many",  # AuthenticatedKVStore.query_many
    "update_leaf",  # test reference: the per-leaf path recompute_paths matches
    "stage_leaf",  # AuthenticatedKVStore.apply_updates
    "recompute_paths",  # AuthenticatedKVStore.apply_updates
    "append_leaf",  # AuthenticatedKVStore._insert_record
}

AUTHENTICATED_KV_STORE = {
    "load",  # DataOwner.preload, TamperingServiceProvider's forked store
    "root",  # DataOwner.prepare_epoch_update
    "get_record",  # DataOwner.prepare_epoch_update, TamperingServiceProvider
    "records",  # TamperingServiceProvider's stale snapshot and forked store
    "replicated_keys",  # DataOwner.prepare_epoch_update
    "keys",  # test reference: the key-sorted view
    "select_keys",  # GrubSystem's scan operation
    "apply_update",  # test reference: a one-update batch
    "apply_updates",  # DataOwner.prepare_epoch_update
    "apply_state_transition",  # test reference: a one-record state-only batch
    "query",  # test reference: the single path query_many's proof matches
    "query_many",  # ServiceProvider.build_deliver_items
    "baseline",  # gateway/feed_state.py: a lane's copy as it arrived, or as main holds it
    "export_delta",  # gateway/feed_state.capture
    "apply_delta",  # gateway/feed_state.apply
    "leaf_hash_for",  # AuthenticatedKVStore.load, apply_updates, _insert_record
}

STORE_DELTA = {
    "from_empty",  # AuthenticatedKVStore.apply_delta: empty the mirror first
    "changed",  # AuthenticatedKVStore.apply_delta: records, slots and leaves
    "deleted",  # AuthenticatedKVStore.apply_delta: keys a reload dropped
    "slot_count",  # AuthenticatedKVStore.apply_delta: the leaf level's width
    "nodes",  # MerkleTree.patch: the changed records' leaves and the nodes above
}


def public_surface(cls: type) -> set:
    """The public methods and properties ``cls`` defines itself."""
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (FunctionType, property, classmethod, staticmethod))
    }


def test_merkle_tree_surface_is_pinned():
    assert public_surface(MerkleTree) == MERKLE_TREE


def test_authenticated_kv_store_surface_is_pinned():
    assert public_surface(AuthenticatedKVStore) == AUTHENTICATED_KV_STORE


def test_store_delta_fields_are_pinned():
    assert {field.name for field in fields(StoreDelta)} == STORE_DELTA
