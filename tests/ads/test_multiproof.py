"""Properties of the one multiproof a deliver call carries.

Trees of 1 to 70 leaves (every padded width up to 128) against random index
multisets: the honest proof verifies, is the single path when one leaf is
asked for, never carries more than the paths it replaces, and every way of
bending it — a flipped digest, a sibling dropped or added, indices that are
unsorted, repeated or out of range, another leaf count — is refused, the
malformed ones by :func:`multiproof_shape` before anything is hashed.
"""

from __future__ import annotations

import random

import pytest

from repro.ads import merkle
from repro.ads.merkle import (
    MerkleTree,
    MultiProof,
    expected_proof_length,
    multiproof_shape,
    recompute_root_from_multiproof,
    verify_multiproof,
)
from repro.common.errors import IntegrityError
from repro.common.hashing import keccak

SIZES = range(1, 71)


def tree_of(size: int) -> MerkleTree:
    return MerkleTree([keccak(f"leaf-{size}-{index}".encode()) for index in range(size)])


def multisets(size: int, rng: random.Random):
    """Index multisets for one tree: a lone leaf, neighbours, a sparse draw
    with repeats, a dense one, every leaf."""
    yield [rng.randrange(size)]
    start = rng.randrange(size)
    yield list(range(start, min(size, start + rng.randint(2, 5))))
    yield [rng.randrange(size) for _ in range(rng.randint(2, 9))]
    yield [rng.randrange(size) for _ in range(2 * size)]
    yield list(range(size))


def flipped(digest: bytes) -> bytes:
    return bytes([digest[0] ^ 1]) + digest[1:]


@pytest.mark.parametrize("size", SIZES)
def test_honest_multiproof_verifies_and_is_never_larger_than_the_paths(size):
    rng = random.Random(size)
    tree = tree_of(size)
    depth = expected_proof_length(size)
    for requested in multisets(size, rng):
        proof = tree.prove_many(requested)
        indices = sorted(set(requested))
        leaves = [tree.leaf(index) for index in indices]
        assert proof.leaf_count == size
        assert recompute_root_from_multiproof(indices, leaves, proof) == tree.root
        assert verify_multiproof(tree.root, indices, leaves, proof)
        siblings, pair_hashes = multiproof_shape(indices, size)
        assert siblings == len(proof.siblings) == proof.size_words
        # Never more than one path a distinct leaf, in digests or in hashes,
        # and never fewer hashes than one per level.
        assert siblings <= len(indices) * depth
        assert depth <= pair_hashes <= len(indices) * depth
        if len(indices) == 1:
            assert proof.siblings == tree.prove(indices[0]).path
            assert (siblings, pair_hashes) == (depth, depth)
        if len(indices) == size:
            # Only all-padding subtrees are left to ship.
            assert siblings == bin(-size % (1 << depth)).count("1")


@pytest.mark.parametrize("size", SIZES)
def test_every_bent_proof_is_refused(size):
    rng = random.Random(1000 + size)
    tree = tree_of(size)
    root = tree.root
    depth = expected_proof_length(size)
    for requested in multisets(size, rng):
        proof = tree.prove_many(requested)
        indices = sorted(set(requested))
        leaves = [tree.leaf(index) for index in indices]
        # Any one digest, of the proof or of the leaves, flipped.
        for position in range(len(proof.siblings)):
            bent = list(proof.siblings)
            bent[position] = flipped(bent[position])
            assert not verify_multiproof(root, indices, leaves, MultiProof(size, tuple(bent)))
        for position in range(len(leaves)):
            bent = list(leaves)
            bent[position] = flipped(bent[position])
            assert not verify_multiproof(root, indices, bent, proof)
        # A sibling dropped (each in turn) or one added at either end.
        for position in range(len(proof.siblings)):
            short = proof.siblings[:position] + proof.siblings[position + 1 :]
            assert not verify_multiproof(root, indices, leaves, MultiProof(size, short))
        extra = keccak(b"extra")
        for longer in ((extra,) + proof.siblings, proof.siblings + (extra,)):
            assert not verify_multiproof(root, indices, leaves, MultiProof(size, longer))
        # The right digests for other positions.
        if len(indices) < size:
            spare = next(index for index in range(size) if index not in indices)
            moved = sorted(indices[1:] + [spare])
            assert not verify_multiproof(root, moved, leaves, proof)
        # Another leaf count is another tree height (a sibling short or left
        # over) or puts a leaf out of range; the count is not itself
        # authenticated, so one of the same height walks the same way.
        for leaf_count in (1, indices[-1], size // 2, 2 * size + 1, 4 * size + 4):
            if expected_proof_length(leaf_count) != depth or leaf_count <= indices[-1]:
                assert not verify_multiproof(
                    root, indices, leaves, MultiProof(leaf_count, proof.siblings)
                )


@pytest.mark.parametrize("size", SIZES)
def test_malformed_indices_are_refused_by_the_shape_before_any_hash(size, monkeypatch):
    rng = random.Random(2000 + size)
    tree = tree_of(size)
    requested = sorted({rng.randrange(size) for _ in range(4)})
    proof = tree.prove_many(requested)
    leaves = [tree.leaf(index) for index in requested]

    def no_hashing(left, right):
        raise AssertionError("a malformed multiproof reached the hash")

    monkeypatch.setattr(merkle, "hash_pair", no_hashing)
    malformed = [
        [],
        requested + [requested[-1]],  # a repeat
        requested + [size],  # past the end
        [-1] + requested,
        requested + [size + 7],
    ]
    if len(requested) > 1:
        malformed.append(requested[::-1])  # unsorted
        malformed.append([requested[1], requested[0]] + requested[2:])
    for indices in malformed:
        with pytest.raises(IntegrityError):
            multiproof_shape(indices, size)
        padded = (leaves + leaves)[: len(indices)]
        with pytest.raises(IntegrityError):
            recompute_root_from_multiproof(indices, padded, proof)
        assert not verify_multiproof(tree.root, indices, padded, proof)
    # One leaf hash too few or too many for the positions.
    with pytest.raises(IntegrityError):
        recompute_root_from_multiproof(requested, leaves + leaves[:1], proof)
    # Within range for the tree, out of range for the count the proof claims.
    with pytest.raises(IntegrityError):
        multiproof_shape([size - 1], size - 1)


def test_shape_of_known_batches():
    # An 8-leaf tree, by hand: (siblings, pair hashes).
    assert multiproof_shape([0], 8) == (3, 3)
    assert multiproof_shape([0, 1], 8) == (2, 3)
    assert multiproof_shape([0, 2], 8) == (3, 4)
    assert multiproof_shape([0, 7], 8) == (4, 5)
    assert multiproof_shape([0, 1, 2, 3], 8) == (1, 4)
    assert multiproof_shape(list(range(8)), 8) == (0, 7)
    # Five leaves are padded to eight: the all-padding subtrees are siblings.
    assert multiproof_shape(list(range(5)), 5) == (2, 6)
    assert multiproof_shape([0], 1) == (0, 0)


def test_siblings_run_level_by_level_left_to_right():
    tree = tree_of(16)
    proof = tree.prove_many([9, 2, 14])
    path = {index: tree.prove(index).path for index in (2, 9, 14)}
    # Leaf level first (2's, 9's, 14's sibling), then one level up, and so on;
    # at the third level 9 and 14 have met under the same parent's children.
    assert proof.siblings == (
        path[2][0], path[9][0], path[14][0],
        path[2][1], path[9][1], path[14][1],
        path[2][2],
    )
