"""Hash/serialization memoization must be observationally invisible.

The hot-path pass memoizes two pure computations: interior-node digests
(:func:`repro.ads.merkle._hash_pair_memo`) and record-leaf serialization
hashes (:func:`repro.common.hashing.hash_record`).  Both caches key on the
full input, so a stale entry is impossible *by construction* — but that is
exactly the property worth pinning with an adversarial workload: randomized
update/revert sequences that repeatedly re-introduce *old* values (the case a
wrongly keyed or wrongly invalidated cache would get wrong), checked
byte-for-byte against an unmemoized reference implementation written directly
on hashlib.
"""

from __future__ import annotations

import hashlib
import random

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.ads.merkle import (
    MerkleTree,
    _hash_pair_memo,
    clear_pair_memo,
    verify_multiproof,
)
from repro.common.hashing import EMPTY_DIGEST, _hash_record_cached, clear_leaf_cache
from repro.common.types import KVRecord, ReplicationState


# -- unmemoized reference implementation (hashlib only) ----------------------


def reference_levels(leaves):
    """Rebuild the padded level structure with direct SHA-256 calls."""
    size = 1
    while size < max(1, len(leaves)):
        size *= 2
    level = list(leaves) + [EMPTY_DIGEST] * (size - len(leaves))
    levels = [level]
    while len(levels[-1]) > 1:
        current = levels[-1]
        levels.append(
            [
                hashlib.sha256(current[i] + current[i + 1]).digest()
                for i in range(0, len(current), 2)
            ]
        )
    return levels


def reference_root(leaves):
    if not leaves:
        return EMPTY_DIGEST
    return reference_levels(leaves)[-1][0]


def reference_proof_digests(leaves, index):
    """The sibling digests of ``index``'s authentication path, bottom-up."""
    digests = []
    position = index
    for level in reference_levels(leaves)[:-1]:
        sibling = position ^ 1
        digests.append(level[sibling] if sibling < len(level) else EMPTY_DIGEST)
        position //= 2
    return digests


def reference_leaf_hash(record: KVRecord) -> bytes:
    """hash_record's documented construction, written out longhand."""
    hasher = hashlib.sha256()
    for value in (record.state.prefix.encode(), record.key.encode(), record.value):
        hasher.update(len(value).to_bytes(8, "big"))
        hasher.update(value)
    return hasher.digest()


def random_leaf(rng) -> bytes:
    return hashlib.sha256(rng.randbytes(8)).digest()


# -- the properties ----------------------------------------------------------


class TestMerkleMemoizationEquivalence:
    def test_randomized_update_revert_sequences_match_reference(self):
        """Roots and proofs stay byte-identical to the unmemoized reference
        across update/append/batch/revert churn, for many seeds."""
        for seed in range(8):
            rng = random.Random(seed)
            clear_pair_memo()
            leaves = [random_leaf(rng) for _ in range(rng.randrange(1, 12))]
            tree = MerkleTree(leaves)
            history = [list(leaves)]
            for step in range(30):
                action = rng.randrange(5)
                if action == 0 and leaves:
                    # Point update to a fresh value.
                    index = rng.randrange(len(leaves))
                    leaves[index] = random_leaf(rng)
                    tree.update_leaf(index, leaves[index])
                elif action == 1:
                    leaves.append(random_leaf(rng))
                    tree.append_leaf(leaves[-1])
                elif action == 2 and leaves:
                    # Batched stage + recompute over random indices.
                    indices = sorted(
                        {rng.randrange(len(leaves)) for _ in range(rng.randrange(1, 4))}
                    )
                    for index in indices:
                        leaves[index] = random_leaf(rng)
                        tree.stage_leaf(index, leaves[index])
                    tree.recompute_paths(indices)
                elif action == 3 and len(history) > 1:
                    # REVERT: restore an earlier snapshot's values leaf by
                    # leaf — every digest written here was already memoized,
                    # the exact pattern a stale cache would corrupt.
                    snapshot = history[rng.randrange(len(history))]
                    for index in range(min(len(snapshot), len(leaves))):
                        if leaves[index] != snapshot[index]:
                            leaves[index] = snapshot[index]
                            tree.update_leaf(index, leaves[index])
                else:
                    # Memo churn mid-sequence must also be invisible.
                    clear_pair_memo()
                history.append(list(leaves))

                assert tree.root == reference_root(leaves), (seed, step)
                for _ in range(2):
                    index = rng.randrange(len(leaves))
                    proof = tree.prove(index)
                    assert list(proof.path) == (
                        reference_proof_digests(leaves, index)
                    ), (seed, step, index)

    def test_prove_many_matches_unmemoized_prove(self):
        rng = random.Random(99)
        leaves = [random_leaf(rng) for _ in range(37)]
        tree = MerkleTree(leaves)
        indices = [rng.randrange(len(leaves)) for _ in range(20)]
        for index in set(indices):
            assert list(tree.prove_many([index]).siblings) == (
                reference_proof_digests(leaves, index)
            )
        assert list(tree.prove_many(indices).siblings) == (
            reference_multiproof_digests(leaves, indices)
        )


def reference_multiproof_digests(leaves, indices):
    """The siblings a batch of leaves cannot compute itself: level by level,
    left to right, by set membership rather than a sorted walk."""
    digests = []
    known = set(indices)
    for level in reference_levels(leaves)[:-1]:
        for position in sorted(known):
            sibling = position ^ 1
            if sibling not in known:
                digests.append(level[sibling] if sibling < len(level) else EMPTY_DIGEST)
        known = {position >> 1 for position in known}
    return digests


class TestLeafSerializationCache:
    def _scripted_run(self, seed: int, clear_caches_every_step: bool):
        """Apply one seed's scripted update/revert sequence to a fresh store,
        returning the root after every step.  With ``clear_caches_every_step``
        the leaf and pair memos are dropped before each step, so every hash is
        recomputed cold; without it the memos stay warm across the run."""
        rng = random.Random(seed)
        store = AuthenticatedKVStore()
        store.load(
            [
                KVRecord.make(f"k{i:03d}", rng.randbytes(16))
                for i in range(rng.randrange(2, 10))
            ]
        )
        previous_values: dict = {}
        roots = [store.root]
        for _ in range(40):
            if clear_caches_every_step:
                clear_leaf_cache()
                clear_pair_memo()
            key = f"k{rng.randrange(12):03d}"
            if rng.random() < 0.3 and key in previous_values:
                # Revert the key to a value it held before: the leaf hash
                # recurs, served from the memo in the warm run — it must be
                # the digest the cold run recomputes from scratch.
                value = previous_values[key]
            else:
                value = rng.randbytes(16)
            record = store.get_record(key)
            if record is not None:
                previous_values[key] = record.value
            state = (
                ReplicationState.REPLICATED
                if rng.random() < 0.3
                else ReplicationState.NOT_REPLICATED
            )
            if rng.random() < 0.5:
                store.apply_update(key, value, state)
            else:
                store.apply_updates([(key, value, state)])
            roots.append(store.root)
        return store, roots

    def test_store_roots_match_cold_cache_replay(self):
        """Warm-memo runs must trace the exact per-step roots of cold runs,
        and every final leaf must equal the longhand (hashlib-only) hash."""
        for seed in range(6):
            warm_store, warm_roots = self._scripted_run(seed, False)
            cold_store, cold_roots = self._scripted_run(seed, True)
            assert warm_roots == cold_roots, seed
            assert warm_store.root == cold_store.root
            for record in warm_store.records():
                assert AuthenticatedKVStore.leaf_hash_for(record) == (
                    reference_leaf_hash(record)
                ), (seed, record.key)


def preload_records(rng, count: int):
    """``count`` records as a feed preloads them, some already replicated."""
    return [
        KVRecord.make(
            f"k{i:03d}",
            rng.randbytes(16),
            ReplicationState.REPLICATED
            if rng.random() < 0.3
            else ReplicationState.NOT_REPLICATED,
        )
        for i in range(count)
    ]


class TestPreloadBuild:
    def test_loaded_root_matches_reference(self):
        """A ``load``-built store's root is the longhand (hashlib-only) root
        over the longhand leaf hashes, at sizes on and off a power of two."""
        rng = random.Random(3)
        for count in (1, 2, 5, 8, 37):
            records = preload_records(rng, count)
            expected = reference_root([reference_leaf_hash(r) for r in records])
            store = AuthenticatedKVStore()
            assert store.load(records) == expected == store.root, count

    def test_load_seeds_both_memos(self):
        """A preload leaves every leaf digest and every distinct interior pair
        in the memos, so verifying preloaded leaves hashes nothing anew:
        feed set-up pays for the tree, the run does not pay for it again."""
        records = preload_records(random.Random(4), 37)
        clear_leaf_cache()
        clear_pair_memo()
        store = AuthenticatedKVStore()
        store.load(records)
        levels = reference_levels([reference_leaf_hash(record) for record in records])
        pairs = {
            (level[i], level[i + 1])
            for level in levels[:-1]
            for i in range(0, len(level), 2)
        }
        assert _hash_record_cached.cache_info().currsize == len(records)
        assert _hash_pair_memo.cache_info().currsize == len(pairs)

        indices = [0, 5, 6, 20, 36]
        leaf_misses = _hash_record_cached.cache_info().misses
        pair_misses = _hash_pair_memo.cache_info().misses
        leaves = [AuthenticatedKVStore.leaf_hash_for(records[i]) for i in indices]
        proof = store.query_many([records[i].key for i in indices]).proof
        assert verify_multiproof(store.root, indices, leaves, proof)
        assert _hash_record_cached.cache_info().misses == leaf_misses
        assert _hash_pair_memo.cache_info().misses == pair_misses
