"""Unit and property tests for the Merkle tree and its proofs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ads.merkle import (
    MerkleProof,
    MerkleTree,
    changed_nodes,
    expected_proof_length,
    recompute_root_from_proof,
    verify_membership,
    verify_multiproof,
)
from repro.common.errors import IntegrityError
from repro.common.hashing import EMPTY_DIGEST, hash_pair, keccak


def leaves_for(count: int) -> list:
    return [keccak(f"leaf-{index}".encode()) for index in range(count)]


class TestConstruction:
    def test_empty_tree_has_empty_root(self):
        assert MerkleTree([]).root == EMPTY_DIGEST

    def test_single_leaf_root_is_leaf(self):
        leaf = keccak(b"only")
        assert MerkleTree([leaf]).root == leaf

    def test_root_changes_with_content(self):
        assert MerkleTree(leaves_for(4)).root != MerkleTree(leaves_for(5)).root

    def test_from_values_hashes_leaves(self):
        tree = MerkleTree.from_values([b"a", b"b"])
        assert tree.leaf(0) == keccak(b"a")

    def test_depth_grows_logarithmically(self):
        assert MerkleTree(leaves_for(8)).depth == 3
        assert MerkleTree(leaves_for(9)).depth == 4

    def test_expected_proof_length(self):
        assert expected_proof_length(1) == 0
        assert expected_proof_length(2) == 1
        assert expected_proof_length(5) == 3


class TestMembershipProofs:
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 16, 33])
    def test_every_leaf_proves_membership(self, count):
        leaves = leaves_for(count)
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            proof = tree.prove(index)
            assert verify_membership(tree.root, leaf, proof)

    def test_wrong_leaf_fails(self):
        tree = MerkleTree(leaves_for(8))
        proof = tree.prove(3)
        assert not verify_membership(tree.root, keccak(b"imposter"), proof)

    def test_wrong_root_fails(self):
        tree = MerkleTree(leaves_for(8))
        proof = tree.prove(3)
        assert not verify_membership(keccak(b"other-root"), tree.leaf(3), proof)

    def test_proof_for_wrong_position_fails(self):
        tree = MerkleTree(leaves_for(8))
        assert not verify_membership(tree.root, tree.leaf(2), tree.prove(3))

    def test_out_of_range_proof_rejected(self):
        tree = MerkleTree(leaves_for(4))
        with pytest.raises(IndexError):
            tree.prove(4)

    def test_walk_costs_one_pair_hash_per_level(self):
        # What a metering verifier charges for: one pair hash per level, known
        # from the proof alone before anything is hashed.
        tree = MerkleTree(leaves_for(16))
        proof = tree.prove(0)
        assert proof.is_bound
        assert proof.num_nodes == tree.depth == expected_proof_length(16)

    def test_recompute_root_matches(self):
        tree = MerkleTree(leaves_for(10))
        proof = tree.prove(7)
        assert recompute_root_from_proof(tree.leaf(7), proof) == tree.root


class TestUpdates:
    def test_update_leaf_changes_root_and_keeps_proofs_valid(self):
        tree = MerkleTree(leaves_for(8))
        old_root = tree.root
        new_leaf = keccak(b"updated")
        tree.update_leaf(5, new_leaf)
        assert tree.root != old_root
        assert verify_membership(tree.root, new_leaf, tree.prove(5))
        assert verify_membership(tree.root, tree.leaf(2), tree.prove(2))

    def test_append_leaf_within_capacity_is_consistent_with_rebuild(self):
        leaves = leaves_for(5)
        incremental = MerkleTree(leaves[:3])
        for leaf in leaves[3:]:
            incremental.append_leaf(leaf)
        rebuilt = MerkleTree(leaves)
        assert incremental.root == rebuilt.root

    def test_append_beyond_capacity_doubles(self):
        leaves = leaves_for(4)
        tree = MerkleTree(leaves)
        tree.append_leaf(keccak(b"extra"))
        assert tree.leaf_count == 5
        assert verify_membership(tree.root, keccak(b"extra"), tree.prove(4))


def appended_across_a_doubling(leaves):
    tree = MerkleTree(leaves[: len(leaves) // 2])
    for leaf in leaves[len(leaves) // 2 :]:
        tree.append_leaf(leaf)
    return tree


def reassembled(leaves):
    """An empty tree patched with every node of a built one."""
    source = MerkleTree(leaves)
    positions = changed_nodes(range(len(leaves)), 0, len(leaves))
    tree = MerkleTree([])
    tree.patch(len(leaves), positions, source.nodes(positions))
    return tree


class TestPadding:
    """Every level is padded to a power of two, however the tree came to be —
    ``prove``, ``_update_path`` and ``recompute_paths`` index siblings without
    a bounds check on that premise."""

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 1000])
    @pytest.mark.parametrize(
        "construct", [MerkleTree, appended_across_a_doubling, reassembled]
    )
    def test_every_sibling_exists_and_padding_is_empty(self, construct, count):
        leaves = leaves_for(count)
        tree = construct(list(leaves))
        assert tree.root == MerkleTree(leaves).root
        # The digest of an all-padding subtree, by height.
        empty = [EMPTY_DIGEST]
        for _ in range(tree.depth):
            empty.append(hash_pair(empty[-1], empty[-1]))
        assert verify_multiproof(
            tree.root, list(range(count)), leaves, tree.prove_many(range(count))
        )
        for index, leaf in enumerate(leaves):
            proof = tree.prove(index)
            assert proof.path == tree.prove_many([index]).siblings
            assert verify_membership(tree.root, leaf, proof)
            for height, sibling in enumerate(proof.path):
                first_leaf_under_sibling = ((index >> height) ^ 1) << height
                assert (sibling == empty[height]) == (first_leaf_under_sibling >= count)
        # The two update paths read the right-hand sibling the same way.
        leaves[-1] = keccak(b"rewritten")
        tree.update_leaf(count - 1, leaves[-1])
        assert tree.root == MerkleTree(leaves).root
        leaves[0] = keccak(b"staged")
        tree.stage_leaf(0, leaves[0])
        assert tree.recompute_paths([0]) == MerkleTree(leaves).root


class TestContiguousRanges:
    """A contiguous run of leaves is proved by one multiproof over its
    indices: every leaf of the run is hashed on the way to the root, so no
    leaf inside it can be swapped without the root changing."""

    def test_a_range_is_a_multiproof_over_its_indices(self):
        tree = MerkleTree(leaves_for(16))
        indices = list(range(4, 9))
        proof = tree.prove_many(indices)
        assert verify_multiproof(tree.root, indices, [tree.leaf(i) for i in indices], proof)
        # Leaf 9, one node at level 1 and two at level 2.
        assert proof.size_words == 4

    def test_every_interior_leaf_of_a_range_is_checked(self):
        tree = MerkleTree(leaves_for(16))
        indices = list(range(4, 9))
        proof = tree.prove_many(indices)
        for forged_at in range(len(indices)):
            leaf_hashes = [tree.leaf(i) for i in indices]
            leaf_hashes[forged_at] = keccak(b"forged")
            assert not verify_multiproof(tree.root, indices, leaf_hashes, proof)

    def test_a_range_ending_in_another_leaf_fails(self):
        # Claim the run 4..6 but end it with leaf 9, under the run's own proof
        # and under the proof that does hold leaf 9.
        tree = MerkleTree(leaves_for(16))
        indices = [4, 5, 6]
        honest = [tree.leaf(i) for i in indices]
        forged = honest[:2] + [tree.leaf(9)]
        assert verify_multiproof(tree.root, indices, honest, tree.prove_many(indices))
        assert not verify_multiproof(tree.root, indices, forged, tree.prove_many(indices))
        assert not verify_multiproof(tree.root, indices, forged, tree.prove_many([4, 5, 9]))

    @pytest.mark.parametrize("count", [1, 5, 16])
    def test_a_range_over_the_whole_tree_ships_only_padding(self, count):
        tree = MerkleTree(leaves_for(count))
        indices = list(range(count))
        proof = tree.prove_many(indices)
        assert verify_multiproof(tree.root, indices, tree.leaves(), proof)
        assert set(proof.siblings) <= {EMPTY_DIGEST, hash_pair(EMPTY_DIGEST, EMPTY_DIGEST)}

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_range_verifies_and_refuses_two_swapped_leaves(self, data):
        count = data.draw(st.integers(min_value=2, max_value=40))
        start = data.draw(st.integers(min_value=0, max_value=count - 2))
        end = data.draw(st.integers(min_value=start + 2, max_value=count))
        tree = MerkleTree(leaves_for(count))
        indices = list(range(start, end))
        leaf_hashes = [tree.leaf(i) for i in indices]
        proof = tree.prove_many(indices)
        assert verify_multiproof(tree.root, indices, leaf_hashes, proof)
        at = data.draw(st.integers(min_value=0, max_value=len(indices) - 2))
        leaf_hashes[at], leaf_hashes[at + 1] = leaf_hashes[at + 1], leaf_hashes[at]
        assert not verify_multiproof(tree.root, indices, leaf_hashes, proof)


class TestProofBinding:
    """A path verifies only at the leaf index and count it claims."""

    def test_forged_index_fails(self):
        tree = MerkleTree(leaves_for(16))
        honest = tree.prove(9)
        forged = MerkleProof(leaf_index=6, leaf_count=16, path=honest.path)
        assert verify_membership(tree.root, tree.leaf(9), honest)
        assert not verify_membership(tree.root, tree.leaf(9), forged)
        # The relabelled path fits a 16-leaf tree, so it is walked to the end —
        # on leaf 6's sides — and arrives at a root that is not the tree's.
        assert forged.is_bound
        assert recompute_root_from_proof(tree.leaf(9), forged) != tree.root

    def test_flags_cannot_override_the_index(self):
        # A proof has no side flags left to forge: the sides come from the
        # index bits, so leaf 9's siblings verify under index 9 and under no
        # other index of the tree.
        tree = MerkleTree(leaves_for(16))
        path = tree.prove(9).path
        assert all(type(sibling) is bytes for sibling in path)
        verifying = [
            index
            for index in range(16)
            if verify_membership(tree.root, tree.leaf(9), MerkleProof(index, 16, path))
        ]
        assert verifying == [9]

    def test_out_of_range_index_fails(self):
        tree = MerkleTree(leaves_for(16))
        path = tree.prove(9).path
        for index in (-7, 16, 9 + 16):
            forged = MerkleProof(leaf_index=index, leaf_count=16, path=path)
            assert not verify_membership(tree.root, tree.leaf(9), forged)

    def test_wrong_length_fails(self):
        tree = MerkleTree(leaves_for(16))
        honest = tree.prove(9)
        # A path cut short "proves" an interior node as if it were a leaf.
        interior = recompute_root_from_proof(
            tree.leaf(9), MerkleProof(1, 2, honest.path[:1])
        )
        truncated = MerkleProof(leaf_index=9 >> 1, leaf_count=16, path=honest.path[1:])
        assert not verify_membership(tree.root, interior, truncated)
        # The same path under a leaf count of another depth.
        for leaf_count in (8, 17, 64):
            relabelled = MerkleProof(leaf_index=1, leaf_count=leaf_count, path=honest.path)
            assert not verify_membership(tree.root, tree.leaf(9), relabelled)

    def test_binding_checks_charge_no_hash(self):
        # ``is_bound`` is what an on-chain verifier reads before it pays for
        # the walk: a wrong length or an out-of-range index is refused there,
        # for no hash gas, and the pure functions refuse the same proofs.
        tree = MerkleTree(leaves_for(16))
        path = tree.prove(9).path
        unbound = [
            MerkleProof(leaf_index=16, leaf_count=16, path=path),
            MerkleProof(leaf_index=-7, leaf_count=16, path=path),
            MerkleProof(leaf_index=9, leaf_count=16, path=path[1:]),
            MerkleProof(leaf_index=9, leaf_count=17, path=path),
        ]
        for forged in unbound:
            assert not forged.is_bound
            assert not verify_membership(tree.root, tree.leaf(9), forged)
            with pytest.raises(IntegrityError):
                recompute_root_from_proof(tree.leaf(9), forged)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40, unique=True))
def test_membership_holds_for_arbitrary_leaf_sets(values):
    """Property: every committed value proves membership; no forged value does."""
    tree = MerkleTree.from_values(values)
    for index, value in enumerate(values):
        assert verify_membership(tree.root, keccak(value), tree.prove(index))
    assert not verify_membership(tree.root, keccak(b"\x00forged\xff"), tree.prove(0))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=8), min_size=2, max_size=24, unique=True),
    st.data(),
)
def test_incremental_updates_match_rebuild(values, data):
    """Property: a sequence of point updates yields the same root as rebuilding."""
    tree = MerkleTree.from_values(values)
    current = [keccak(v) for v in values]
    for _ in range(5):
        index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        new_value = data.draw(st.binary(min_size=1, max_size=8))
        current[index] = keccak(new_value)
        tree.update_leaf(index, keccak(new_value))
    assert tree.root == MerkleTree(current).root
