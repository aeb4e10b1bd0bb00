"""Tests for the authenticated KV store and its security against a tampering SP."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.ads.merkle import verify_membership, verify_multiproof
from repro.common.errors import StorageError
from repro.common.types import KVRecord, ReplicationState
from repro.storage.lsm import LSMStore


@pytest.fixture
def backed_store(sample_records) -> AuthenticatedKVStore:
    """``loaded_store`` on an LSM backing, the durable path whose R/NR
    prefixed-key layout these tests read (a default store has no backing)."""
    store = AuthenticatedKVStore(backing=LSMStore())
    store.load(sample_records)
    return store


class TestLoadAndLookup:
    def test_load_returns_root_and_indexes_records(self, loaded_store, sample_records):
        assert loaded_store.root != b"\x00" * 32
        assert len(loaded_store) == len(sample_records)
        assert loaded_store.get_record("alpha").value == b"value-alpha"

    def test_records_sorted_by_key(self, loaded_store):
        keys = [record.key for record in loaded_store.records()]
        assert keys == sorted(keys)

    def test_replicated_records_filter(self, loaded_store):
        assert loaded_store.replicated_keys() == ["charlie"]

    def test_backing_store_uses_prefixed_keys(self, backed_store):
        assert backed_store.backing.get("NR|alpha") == b"value-alpha"
        assert backed_store.backing.get("R|charlie") == b"value-charlie"

    def test_a_default_store_has_no_backing(self, loaded_store):
        assert loaded_store.backing is None

    def test_proof_length_grows_with_size(self):
        small = AuthenticatedKVStore()
        small.load([KVRecord.make(f"k{i}", b"v") for i in range(4)])
        large = AuthenticatedKVStore()
        large.load([KVRecord.make(f"k{i}", b"v") for i in range(64)])
        assert large.query("k0").proof.num_nodes > small.query("k0").proof.num_nodes


class TestUpdatesAndTransitions:
    def test_update_existing_changes_root_and_version(self, loaded_store):
        old_root = loaded_store.root
        loaded_store.apply_update("alpha", b"new-value")
        assert loaded_store.root != old_root
        record = loaded_store.get_record("alpha")
        assert record.value == b"new-value"
        assert record.version == 1

    def test_insert_new_key(self, loaded_store):
        loaded_store.apply_update("echo", b"value-echo")
        assert loaded_store.get_record("echo") is not None
        assert "echo" in loaded_store.keys()

    def test_state_transition_changes_root_and_prefix(self, backed_store):
        old_root = backed_store.root
        backed_store.apply_state_transition("alpha", ReplicationState.REPLICATED)
        assert backed_store.root != old_root
        assert backed_store.get_record("alpha").state is ReplicationState.REPLICATED
        assert backed_store.backing.get("R|alpha") == b"value-alpha"
        assert backed_store.backing.get("NR|alpha") is None

    def test_transition_to_same_state_is_noop(self, loaded_store):
        root = loaded_store.root
        loaded_store.apply_state_transition("alpha", ReplicationState.NOT_REPLICATED)
        assert loaded_store.root == root

    def test_transition_unknown_key_rejected(self, loaded_store):
        with pytest.raises(StorageError):
            loaded_store.apply_state_transition("ghost", ReplicationState.REPLICATED)

    def test_a_key_a_reload_dropped_can_be_written_again(self, backed_store, sample_records):
        backed_store.load([record for record in sample_records if record.key != "bravo"])
        assert backed_store.get_record("bravo") is None
        assert backed_store.backing.get("NR|bravo") is None
        assert len(backed_store) == 3
        backed_store.apply_update("bravo", b"back")
        assert backed_store.get_record("bravo").value == b"back"
        assert backed_store.backing.get("NR|bravo") == b"back"
        # A new record again: version 0, in the next slot.
        assert backed_store.get_record("bravo").version == 0
        assert backed_store.query("bravo").proof.leaf_index == 3

    def test_slots_are_append_only(self, loaded_store):
        def slots():
            return {key: loaded_store.query(key).proof.leaf_index for key in loaded_store.keys()}

        before = slots()
        loaded_store.apply_updates(
            [
                ("echo", b"new", None),
                ("alpha", b"v2", ReplicationState.REPLICATED),
                ("foxtrot", b"new", None),
                ("charlie", None, ReplicationState.NOT_REPLICATED),
            ]
        )
        loaded_store.apply_update("delta", b"v2")
        assert slots() == {**before, "echo": 4, "foxtrot": 5}


class TestQueriesAndProofs:
    def test_query_hit_verifies_against_root(self, loaded_store):
        result = loaded_store.query("alpha")
        leaf = AuthenticatedKVStore.leaf_hash_for(result.record)
        assert verify_membership(loaded_store.root, leaf, result.proof)

    def test_query_miss_has_no_record(self, loaded_store):
        result = loaded_store.query("ghost")
        assert result.record is None and result.proof is None

    def test_stale_proof_fails_after_update(self, loaded_store):
        stale = loaded_store.query("alpha")
        loaded_store.apply_update("alpha", b"fresh")
        leaf = AuthenticatedKVStore.leaf_hash_for(stale.record)
        assert not verify_membership(loaded_store.root, leaf, stale.proof)

    def test_scan_returns_consecutive_keys(self, loaded_store):
        assert loaded_store.select_keys("alpha", 3) == ["alpha", "bravo", "charlie"]

    def test_a_key_range_is_proved_by_one_multiproof(self, loaded_store):
        keys = loaded_store.select_keys("bravo", 3)
        batch = loaded_store.query_many(keys)
        assert sorted(batch.found) == keys == ["bravo", "charlie", "delta"]
        by_slot = sorted(batch.found.values(), key=lambda found: found[1])
        indices = [slot for _, slot in by_slot]
        leaves = [AuthenticatedKVStore.leaf_hash_for(record) for record, _ in by_slot]
        assert verify_multiproof(loaded_store.root, indices, leaves, batch.proof)
        # Rewriting any record of the range leaves the old proof behind.
        loaded_store.apply_update("charlie", b"rewritten")
        assert not verify_multiproof(loaded_store.root, indices, leaves, batch.proof)

    def test_a_record_proves_only_under_its_replication_state(self, loaded_store):
        batch = loaded_store.query_many(["charlie"])
        record, slot = batch.found["charlie"]
        relabelled = record.with_state(ReplicationState.NOT_REPLICATED)
        leaf_hash_for = AuthenticatedKVStore.leaf_hash_for
        assert verify_multiproof(loaded_store.root, [slot], [leaf_hash_for(record)], batch.proof)
        assert not verify_multiproof(
            loaded_store.root, [slot], [leaf_hash_for(relabelled)], batch.proof
        )


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=4),
        st.binary(min_size=1, max_size=16),
        min_size=1,
        max_size=20,
    ),
    st.data(),
)
def test_every_stored_record_always_proves_membership(initial, data):
    """Property: after arbitrary updates/transitions, every record's proof verifies
    against the current root and no stale proof does."""
    store = AuthenticatedKVStore()
    store.load([KVRecord.make(k, v) for k, v in sorted(initial.items())])
    keys = sorted(initial)
    for _ in range(8):
        key = data.draw(st.sampled_from(keys))
        action = data.draw(st.sampled_from(["update", "flip"]))
        if action == "update":
            store.apply_update(key, data.draw(st.binary(min_size=1, max_size=16)))
        else:
            record = store.get_record(key)
            store.apply_state_transition(key, record.state.flipped())
    for key in keys:
        result = store.query(key)
        leaf = AuthenticatedKVStore.leaf_hash_for(result.record)
        assert verify_membership(store.root, leaf, result.proof)
