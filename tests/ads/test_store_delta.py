"""The SP store's way across an interpreter boundary: ``baseline`` /
``export_delta`` / ``apply_delta`` must reproduce the exporter's store on a
mirror standing at the baseline — layout, tree and backing included."""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.ads.authenticated_kv import (
    EMPTY_BASELINE,
    TOMBSTONE_LEAF,
    AuthenticatedKVStore,
)
from repro.ads.merkle import verify_membership
from repro.common.types import KVRecord, ReplicationState

#: Few keys, so that sequences keep colliding: a key deleted and re-inserted,
#: a freed slot taken over by a neighbour.
KEYS = [f"k{index:02d}" for index in range(6)]
keys = st.sampled_from(KEYS)
values = st.binary(min_size=1, max_size=8)
states = st.sampled_from([None, *ReplicationState])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values, states),
        st.tuples(st.just("flip"), keys),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("batch"), st.lists(st.tuples(keys, values, states), max_size=4)),
    ),
    max_size=24,
)
preloads = st.lists(
    st.tuples(keys, values, st.sampled_from(list(ReplicationState))),
    unique_by=lambda item: item[0],
)


def loaded(preload) -> AuthenticatedKVStore:
    store = AuthenticatedKVStore()
    store.load([KVRecord(key, value, state) for key, value, state in preload])
    return store


def drive(store: AuthenticatedKVStore, operation: tuple) -> None:
    kind, *args = operation
    if kind == "put":
        store.apply_update(*args)
    elif kind == "flip":
        record = store.get_record(args[0])
        if record is not None:
            store.apply_state_transition(args[0], record.state.flipped())
    elif kind == "delete":
        store.delete(args[0])
    else:
        store.apply_updates(args[0])


def assert_same_store(mirror: AuthenticatedKVStore, store: AuthenticatedKVStore) -> None:
    assert mirror.root == store.root
    assert dict(mirror._records) == dict(store._records)
    assert mirror._slot_of == store._slot_of
    assert mirror._slots == store._slots
    assert mirror._free_slots == store._free_slots
    assert mirror._sorted_keys == store._sorted_keys
    assert mirror._replicated_keys == store._replicated_keys
    assert mirror._tree._leaves == store._tree._leaves
    assert mirror._tree._levels == store._tree._levels
    for key in store.keys():
        result = mirror.query(key)
        assert verify_membership(store.root, store.leaf_hash_for(result.record), result.proof)


def assert_same_backing(mirror: AuthenticatedKVStore, store: AuthenticatedKVStore) -> None:
    assert list(mirror.backing.items()) == list(store.backing.items())


@settings(max_examples=300, deadline=None)
@given(preload=preloads, before=operations, after=operations)
def test_delta_round_trips_from_a_baseline_and_from_empty(preload, before, after):
    store = loaded(preload)
    for operation in before:
        drive(store, operation)
    # (a) a mirror standing at a baseline taken mid-sequence (a forked lane's
    # view of the main store) receives only what diverged since.
    mirror = copy.deepcopy(store)
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
    unrelated = loaded(
        [
            ("zz-ghost", b"stale", ReplicationState.REPLICATED),
            ("k00", b"x", ReplicationState.NOT_REPLICATED),
        ]
    )
    unrelated.delete("k00")
    for target in (AuthenticatedKVStore(), unrelated):
        assert target.apply_delta(whole) == store.root
        assert_same_store(target, store)
        assert_same_backing(target, store)


def test_a_reused_slot_and_a_reinserted_key_keep_their_slots():
    """Delete ``k00``, let ``k03`` take its slot, append two, re-insert
    ``k00``: nothing is "deleted" and the free lists are equal, yet the
    baseline's slots are no longer a prefix of the store's."""
    store = loaded([("k00", b"v", ReplicationState.NOT_REPLICATED)])
    mirror = copy.deepcopy(store)
    baseline = store.baseline()
    store.delete("k00")
    for key in ("k03", "k12", "k16", "k00"):
        store.apply_update(key, b"w")
    mirror.apply_delta(store.export_delta(baseline))
    assert mirror._slots == store._slots == ["k03", "k12", "k16", "k00"]
    assert_same_store(mirror, store)
    assert_same_backing(mirror, store)


def test_a_key_reinserted_into_another_slot_frees_its_old_one():
    store = loaded([(key, b"v", ReplicationState.NOT_REPLICATED) for key in KEYS[:2]])
    mirror = copy.deepcopy(store)
    baseline = store.baseline()
    store.delete("k00")
    store.delete("k01")
    store.apply_update("k00", b"v")
    mirror.apply_delta(store.export_delta(baseline))
    assert mirror._slots == store._slots == [None, "k00"]
    assert_same_store(mirror, store)
    assert_same_backing(mirror, store)


def test_an_untouched_store_ships_no_records():
    store = loaded([(key, b"v", ReplicationState.REPLICATED) for key in KEYS])
    delta = store.export_delta(store.baseline())
    assert (delta.from_empty, delta.changed, delta.deleted) == (False, [], [])


def test_freed_slots_arrive_as_tombstones():
    """A slot filled and freed again since the baseline has no record to
    carry its leaf; neither has one freed before a from-empty export."""
    store = loaded([("k00", b"v", ReplicationState.NOT_REPLICATED)])
    mirror = copy.deepcopy(store)
    baseline = store.baseline()
    store.apply_update("k01", b"w")
    store.delete("k01")
    mirror.apply_delta(store.export_delta(baseline))
    fresh = AuthenticatedKVStore()
    fresh.apply_delta(store.export_delta())
    for target in (mirror, fresh):
        assert target._tree.leaf(1) == TOMBSTONE_LEAF
        assert_same_store(target, store)


def test_a_store_reloaded_smaller_after_the_baseline_shrinks_the_mirror():
    store = loaded([(key, b"v", ReplicationState.NOT_REPLICATED) for key in KEYS])
    mirror = copy.deepcopy(store)
    baseline = store.baseline()
    store.load([KVRecord("k02", b"new"), KVRecord("k09", b"new")])
    mirror.apply_delta(store.export_delta(baseline))
    assert_same_store(mirror, store)
