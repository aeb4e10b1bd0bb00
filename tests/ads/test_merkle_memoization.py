"""The tree and the record leaves, pinned against a hashlib-only reference.

Interior-node digests (:func:`repro.common.hashing.hash_pair`) and record-leaf
hashes (:func:`repro.common.hashing.hash_record`) are computed afresh on every
call: no process-wide memo sits between the tree and SHA-256.  The
equivalence tests drive adversarial workloads — randomized update/revert
sequences that repeatedly re-introduce *old* values, the case a wrongly keyed
or wrongly invalidated cache would get wrong — and check every root, path and
leaf byte-for-byte against a reference written directly on hashlib, so a memo
brought back in front of either hash has to stay invisible to them.  The last
test pins what having no memo buys: a store that is dropped leaves no hash
state behind in the process.
"""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.ads.merkle import MerkleTree, clear_pair_memo, verify_multiproof
from repro.common.hashing import EMPTY_DIGEST, clear_leaf_cache
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

    def test_an_unbacked_store_builds_no_prefixed_key(self, monkeypatch):
        """Prefixed keys are the backing's layout: a store without a backing
        (a memory feed's) loads, updates, inserts and flips a record's state
        without building one, and every root is still the reference's."""

        def refused(record):
            raise AssertionError("an unbacked store built a prefixed key")

        monkeypatch.setattr(KVRecord, "prefixed_key", property(refused))
        records = preload_records(random.Random(4), 9)
        store = AuthenticatedKVStore()
        assert store.load(records) == reference_root(
            [reference_leaf_hash(r) for r in records]
        )
        flipped = records[2].with_state(
            ReplicationState.REPLICATED
            if records[2].state is ReplicationState.NOT_REPLICATED
            else ReplicationState.NOT_REPLICATED
        )
        updated = KVRecord(
            key=records[5].key,
            value=b"new",
            state=ReplicationState.REPLICATED,
            version=records[5].version + 1,
        )
        inserted = KVRecord.make("k999", b"inserted")
        root = store.apply_updates(
            [
                (flipped.key, None, flipped.state),
                (updated.key, updated.value, updated.state),
                (inserted.key, inserted.value, None),
            ]
        )
        records[2], records[5] = flipped, updated
        records.append(inserted)
        assert root == reference_root([reference_leaf_hash(r) for r in records])
        assert store.apply_state_transition(
            inserted.key, ReplicationState.REPLICATED
        ) == reference_root(
            [reference_leaf_hash(r) for r in records[:-1]]
            + [reference_leaf_hash(inserted.with_state(ReplicationState.REPLICATED))]
        )

    def test_dropped_store_leaves_no_hash_state_in_the_process(self):
        """Load 1 024 records, prove and verify a batch, drop the store: what
        ``repro/ads`` and ``repro/common`` allocated meanwhile is gone again,
        so a long-lived gateway keeps no digests of the feeds it evicted."""

        def load_prove_verify(seed: int) -> bool:
            records = preload_records(random.Random(seed), 1024)
            store = AuthenticatedKVStore()
            store.load(records)
            indices = [0, 5, 6, 200, 511, 512, 1023]
            result = store.query_many([records[i].key for i in indices])
            leaves = [AuthenticatedKVStore.leaf_hash_for(records[i]) for i in indices]
            return verify_multiproof(store.root, indices, leaves, result.proof)

        # Warm up imports and one-time set-up on other records: their
        # digests were allocated before tracing starts and are not counted.
        assert load_prove_verify(5)
        gc.collect()
        tracemalloc.start()
        try:
            assert load_prove_verify(6)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        live = snapshot.filter_traces(
            [
                tracemalloc.Filter(True, "*/repro/ads/*"),
                tracemalloc.Filter(True, "*/repro/common/*"),
            ]
        )
        kept = sum(stat.size for stat in live.statistics("filename"))
        assert kept < 32 * 1024, kept
