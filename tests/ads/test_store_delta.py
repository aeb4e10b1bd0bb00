"""The SP store's way across an interpreter boundary: ``baseline`` /
``export_delta`` / ``apply_delta`` must reproduce the exporter's store on a
mirror standing at the baseline — layout, tree and, on an LSM-backed store,
backing included."""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.ads.authenticated_kv import EMPTY_BASELINE, AuthenticatedKVStore
from repro.ads.merkle import verify_membership
from repro.common.hashing import DIGEST_SIZE_BYTES
from repro.common.types import KVRecord, ReplicationState
from repro.storage.lsm import LSMConfig, LSMStore

#: Few keys, so that sequences keep colliding: a key a reload dropped written
#: again, a slot that a reload handed to another key.
KEYS = [f"k{index:02d}" for index in range(6)]
keys = st.sampled_from(KEYS)
values = st.binary(min_size=1, max_size=8)
states = st.sampled_from([None, *ReplicationState])
#: A random subset of ``KEYS`` in a random slot order: nothing deletes a
#: single record, so a reload is what removes keys and moves slots.
preloads = st.lists(
    st.tuples(keys, values, st.sampled_from(list(ReplicationState))),
    unique_by=lambda item: item[0],
)
operation = st.one_of(
    st.tuples(st.just("put"), keys, values, states),
    st.tuples(st.just("flip"), keys),
    st.tuples(st.just("load"), preloads),
    st.tuples(st.just("batch"), st.lists(st.tuples(keys, values, states), max_size=4)),
)
operations = st.lists(operation, max_size=24)


def records(preload) -> list:
    return [KVRecord(key, value, state) for key, value, state in preload]


def loaded(preload, backing=None) -> AuthenticatedKVStore:
    store = AuthenticatedKVStore(backing=backing)
    store.load(records(preload))
    return store


def backed(preload, before=()) -> AuthenticatedKVStore:
    """A store on an LSM backing, whose contents a delta must carry too,
    after ``before``.  A mirror of one is a second call with the same
    arguments, not a ``copy.deepcopy``: the copy's memtable would not know
    its tombstones (a sentinel compared by identity)."""
    store = loaded(preload, LSMStore())
    for operation in before:
        drive(store, operation)
    return store


def drive(store: AuthenticatedKVStore, operation: tuple) -> None:
    kind, *args = operation
    if kind == "put":
        store.apply_update(*args)
    elif kind == "flip":
        record = store.get_record(args[0])
        if record is not None:
            store.apply_state_transition(args[0], record.state.flipped())
    elif kind == "load":
        store.load(records(args[0]))
    else:
        store.apply_updates(args[0])


def assert_same_store(mirror: AuthenticatedKVStore, store: AuthenticatedKVStore) -> None:
    assert mirror.root == store.root
    assert dict(mirror._records) == dict(store._records)
    assert mirror._slot_of == store._slot_of
    assert mirror._sorted_keys == store._sorted_keys
    assert mirror._replicated_keys == store._replicated_keys
    assert mirror._tree.leaves() == store._tree.leaves()
    assert mirror._tree._levels == store._tree._levels
    for key in store.keys():
        result = mirror.query(key)
        assert verify_membership(store.root, store.leaf_hash_for(result.record), result.proof)


def rebuilt(store: AuthenticatedKVStore) -> AuthenticatedKVStore:
    """The reference: ``store``'s records loaded from scratch in slot order,
    the tree built whole rather than kept up write by write."""
    fresh = AuthenticatedKVStore()
    fresh.load(sorted(store._records.values(), key=lambda record: store._slot_of[record.key]))
    return fresh


def assert_same_backing(mirror: AuthenticatedKVStore, store: AuthenticatedKVStore) -> None:
    assert list(mirror.backing.items()) == list(store.backing.items())


@settings(max_examples=300, deadline=None)
@given(preload=preloads, before=operations, after=operations)
def test_delta_round_trips_from_a_baseline_and_from_empty(preload, before, after):
    store = backed(preload, before)
    # (a) a mirror standing at a baseline taken mid-sequence (a forked lane's
    # view of the main store) receives only what diverged since.
    mirror = backed(preload, before)
    baseline = store.baseline()
    for operation in after:
        drive(store, operation)
    delta = store.export_delta(baseline)
    assert delta.from_empty == (not baseline.records)
    assert mirror.apply_delta(delta) == store.root
    assert_same_store(mirror, store)
    assert_same_backing(mirror, store)
    # (b) against the empty baseline the delta is the whole store: a fresh
    # store takes it as is, a store holding something else is emptied first.
    whole = store.export_delta(EMPTY_BASELINE)
    assert whole.from_empty and len(whole.changed) == len(store)
    unrelated = backed(
        [
            ("zz-ghost", b"stale", ReplicationState.REPLICATED),
            ("k00", b"x", ReplicationState.NOT_REPLICATED),
        ]
    )
    for target in (AuthenticatedKVStore(backing=LSMStore()), unrelated):
        assert target.apply_delta(whole) == store.root
        assert_same_store(target, store)
        assert_same_backing(target, store)


def test_an_untouched_store_ships_no_records():
    store = loaded([(key, b"v", ReplicationState.REPLICATED) for key in KEYS])
    delta = store.export_delta(store.baseline())
    assert (delta.from_empty, delta.changed, delta.deleted) == (False, [], [])


def test_a_slot_a_reload_handed_to_another_key_ships_as_changed():
    """Reload ``k00``'s slot with ``k03``, append two, write ``k00`` again:
    no baseline key is gone, yet the baseline's slots are no longer a prefix
    of the store's."""
    store = backed([("k00", b"v", ReplicationState.NOT_REPLICATED)])
    mirror = backed([("k00", b"v", ReplicationState.NOT_REPLICATED)])
    baseline = store.baseline()
    store.load([KVRecord("k03", b"w")])
    for key in ("k12", "k16", "k00"):
        store.apply_update(key, b"w")
    delta = store.export_delta(baseline)
    assert delta.deleted == []
    assert {key: slot for key, *_, slot in delta.changed} == {
        "k03": 0,
        "k12": 1,
        "k16": 2,
        "k00": 3,
    }
    mirror.apply_delta(delta)
    assert_same_store(mirror, store)
    assert_same_backing(mirror, store)


def test_two_keys_a_reload_swapped_trade_slots_on_the_mirror():
    store = backed([(key, b"v", ReplicationState.NOT_REPLICATED) for key in KEYS[:2]])
    mirror = backed([(key, b"v", ReplicationState.NOT_REPLICATED) for key in KEYS[:2]])
    baseline = store.baseline()
    store.load([KVRecord("k01", b"v")])
    store.apply_update("k00", b"v")
    mirror.apply_delta(store.export_delta(baseline))
    assert mirror._slot_of == store._slot_of == {"k01": 0, "k00": 1}
    assert_same_store(mirror, store)
    assert_same_backing(mirror, store)


def test_a_write_ships_its_record_and_only_the_nodes_above_it():
    """One rewritten record of a 64-record store crosses as that record, its
    leaf and the six nodes above it — not the tree's 63 interior nodes."""
    preload = [(f"k{index:02d}", b"v", ReplicationState.NOT_REPLICATED) for index in range(64)]
    store = backed(preload)
    mirror = backed(preload)
    baseline = store.baseline()
    store.apply_update("k37", b"w")
    delta = store.export_delta(baseline)
    assert [key for key, *_ in delta.changed] == ["k37"]
    assert len(delta.nodes) == 7 * DIGEST_SIZE_BYTES
    assert mirror.apply_delta(delta) == store.root
    assert_same_store(mirror, store)
    assert_same_backing(mirror, store)


def test_a_store_that_outgrew_its_tree_ships_the_new_half():
    """An append past the padded width doubles the tree: the delta carries the
    new record's path and every node the narrower tree did not have."""
    store = loaded([(key, b"v", ReplicationState.NOT_REPLICATED) for key in KEYS[:4]])
    mirror = copy.deepcopy(store)
    baseline = store.baseline()
    store.apply_update("k04", b"w")
    delta = store.export_delta(baseline)
    # Leaf 4; level 1: 2, 3; level 2: 1; the root.
    assert len(delta.nodes) == 5 * DIGEST_SIZE_BYTES
    mirror.apply_delta(delta)
    assert_same_store(mirror, store)


def test_a_store_reloaded_smaller_after_the_baseline_shrinks_the_mirror():
    store = loaded([(key, b"v", ReplicationState.NOT_REPLICATED) for key in KEYS])
    mirror = copy.deepcopy(store)
    baseline = store.baseline()
    store.load([KVRecord("k02", b"new"), KVRecord("k09", b"new")])
    mirror.apply_delta(store.export_delta(baseline))
    assert_same_store(mirror, store)


#: Steps for a store and its twin: an operation, or a delta another store cut
#: after running ``operations`` on a copy of the twin — against the copy's
#: baseline, or against the empty one (``True``).
steps = st.lists(
    st.one_of(operation, st.tuples(st.just("delta"), st.booleans(), operations)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(steps=steps)
def test_a_backing_holds_the_records_and_changes_nothing_else(steps):
    """An LSM-backed store and an unbacked twin run the same loads, batches
    and deltas: the backing holds exactly the store's records under their
    prefixed keys, the twin stands where the backed store does, and both
    stand where a store rebuilt from their records does."""
    # A small memtable, so the sequences flush and compact too.
    store = AuthenticatedKVStore(
        backing=LSMStore(
            config=LSMConfig(memtable_flush_bytes=64, max_sstables_before_compaction=2)
        )
    )
    twin = AuthenticatedKVStore()
    for step in steps:
        if step[0] == "delta":
            _, whole, source_operations = step
            source = copy.deepcopy(twin)
            baseline = EMPTY_BASELINE if whole else source.baseline()
            for source_operation in source_operations:
                drive(source, source_operation)
            delta = source.export_delta(baseline)
            assert store.apply_delta(delta) == twin.apply_delta(delta) == source.root
        else:
            drive(store, step)
            drive(twin, step)
        assert dict(store.backing.items()) == {
            record.prefixed_key: record.value for record in store.records()
        }
        assert_same_store(twin, store)
        assert_same_store(rebuilt(twin), twin)
