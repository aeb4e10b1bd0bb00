"""Batched proof generation: one multiproof for a set of leaves, the single
path when the set is one leaf (the property tests are ``test_multiproof.py``)."""

from __future__ import annotations

import pytest

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.ads.merkle import MerkleTree, verify_multiproof
from repro.common.errors import StorageError
from repro.common.hashing import keccak
from repro.common.types import KVRecord, ReplicationState
from repro.storage.lsm import LSMStore


def make_tree(num_leaves: int) -> MerkleTree:
    return MerkleTree([keccak(bytes([i])) for i in range(num_leaves)])


class TestProveMany:
    @pytest.mark.parametrize("num_leaves", [1, 2, 5, 8, 33])
    def test_matches_individual_proofs(self, num_leaves):
        tree = make_tree(num_leaves)
        for index in range(num_leaves):
            batched = tree.prove_many([index])
            assert batched.leaf_count == num_leaves
            assert batched.siblings == tree.prove(index).path
        # Every leaf proved together leaves only all-padding subtrees to ship.
        everything = tree.prove_many(range(num_leaves))
        assert len(everything.siblings) == bin(-num_leaves % (1 << tree.depth)).count("1")
        assert verify_multiproof(
            tree.root, list(range(num_leaves)), tree.leaves(), everything
        )

    def test_shared_siblings_are_one_object(self):
        tree = make_tree(8)
        proof = tree.prove_many([0, 1])
        # Leaves 0 and 1 are each other's sibling and share every path node
        # above the leaf level: two digests where two paths carry six, and the
        # tree's own objects, not copies.
        assert len(proof.siblings) == 2
        for shared, first, second in zip(
            proof.siblings, tree.prove(0).path[1:], tree.prove(1).path[1:]
        ):
            assert shared is first is second

    def test_batched_proofs_verify(self):
        tree = make_tree(16)
        indices = [3, 7, 11]
        proof = tree.prove_many(indices)
        leaves = [tree.leaf(index) for index in indices]
        assert verify_multiproof(tree.root, indices, leaves, proof)
        assert not verify_multiproof(tree.root, [3, 7, 12], leaves, proof)

    def test_out_of_range_rejected(self):
        tree = make_tree(4)
        with pytest.raises(IndexError):
            tree.prove_many([5])
        with pytest.raises(IndexError):
            tree.prove_many([0, -1])

    def test_duplicate_indices_deduplicated(self):
        tree = make_tree(4)
        assert tree.prove_many([2, 2, 2]) == tree.prove_many([2])
        assert tree.prove_many([3, 0, 3]) == tree.prove_many([0, 3])


class TestStagedLeafUpdates:
    def test_recompute_paths_equals_sequential_updates(self):
        staged = make_tree(16)
        sequential = make_tree(16)
        updates = {1: keccak(b"one"), 6: keccak(b"six"), 7: keccak(b"seven")}
        for index, leaf in updates.items():
            staged.stage_leaf(index, leaf)
            sequential.update_leaf(index, leaf)
        assert staged.recompute_paths(list(updates)) == sequential.root

    def test_stage_then_append_stays_consistent(self):
        staged = make_tree(4)
        reference = make_tree(4)
        staged.stage_leaf(1, keccak(b"x"))
        reference.update_leaf(1, keccak(b"x"))
        # An append mid-batch (even one that rebuilds) must not lose the
        # staged leaf value.
        staged.append_leaf(keccak(b"y"))
        reference.append_leaf(keccak(b"y"))
        assert staged.recompute_paths([1]) == reference.root


class TestQueryMany:
    def make_store(self, n=12, backing=None) -> AuthenticatedKVStore:
        store = AuthenticatedKVStore(backing=backing)
        store.load([KVRecord.make(f"key-{i:02d}", bytes([i]) * 8) for i in range(n)])
        return store

    def test_matches_individual_queries(self):
        store = self.make_store()
        keys = ["key-09", "key-01", "missing", "key-05", "key-01"]
        batched = store.query_many(keys)
        assert list(batched.found) == ["key-09", "key-01", "key-05"]
        for key, (record, leaf_index) in batched.found.items():
            single = store.query(key)
            assert record == single.record
            assert leaf_index == single.proof.leaf_index
        by_leaf = sorted(
            (leaf_index, store.leaf_hash_for(record))
            for record, leaf_index in batched.found.values()
        )
        assert verify_multiproof(
            store.root,
            [leaf_index for leaf_index, _ in by_leaf],
            [leaf for _, leaf in by_leaf],
            batched.proof,
        )

    def test_state_only_update_keeps_value_and_version(self):
        batched_store = self.make_store(backing=LSMStore())
        sequential_store = self.make_store(backing=LSMStore())
        updates = [
            ("key-03", b"v3", None),
            ("key-04", None, ReplicationState.REPLICATED),
            ("key-03", None, ReplicationState.REPLICATED),
            ("key-05", None, ReplicationState.NOT_REPLICATED),  # already there
        ]
        root = batched_store.apply_updates(updates)
        sequential_store.apply_update("key-03", b"v3")
        sequential_store.apply_state_transition("key-04", ReplicationState.REPLICATED)
        sequential_store.apply_state_transition("key-03", ReplicationState.REPLICATED)
        assert root == sequential_store.root
        assert batched_store.replicated_keys() == ["key-03", "key-04"]
        assert batched_store.records() == sequential_store.records()
        assert dict(batched_store.backing.items()) == dict(sequential_store.backing.items())
        with pytest.raises(StorageError):
            batched_store.apply_updates([("nobody", None, ReplicationState.REPLICATED)])

    def test_apply_updates_equals_sequential(self):
        batched_store = self.make_store()
        sequential_store = self.make_store()
        updates = [
            ("key-02", b"v2", ReplicationState.REPLICATED),
            ("key-07", b"v7", None),
            ("brand-new", b"nv", None),
            ("key-02", b"v2b", None),  # second write of the same key
        ]
        root = batched_store.apply_updates(updates)
        for key, value, state in updates:
            sequential_store.apply_update(key, value, state)
        assert root == sequential_store.root
        assert batched_store.replicated_keys() == sequential_store.replicated_keys()
        for key in ("key-02", "key-07", "brand-new"):
            assert batched_store.get_record(key) == sequential_store.get_record(key)
        # The tree kept up by staged paths is the one built whole.
        slot_of = batched_store._slot_of
        rebuilt = AuthenticatedKVStore()
        rebuilt.load(sorted(batched_store.records(), key=lambda record: slot_of[record.key]))
        assert rebuilt.root == root
