"""The SP store's way across an interpreter boundary: ``baseline`` /
``export_delta`` / ``apply_delta`` must reproduce the exporter's store on a
mirror standing at the baseline — layout, tree and backing included."""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.ads.authenticated_kv import EMPTY_BASELINE, AuthenticatedKVStore
from repro.ads.merkle import verify_membership
from repro.common.hashing import DIGEST_SIZE_BYTES
from repro.common.types import KVRecord, ReplicationState

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
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values, states),
        st.tuples(st.just("flip"), keys),
        st.tuples(st.just("load"), preloads),
        st.tuples(st.just("batch"), st.lists(st.tuples(keys, values, states), max_size=4)),
    ),
    max_size=24,
)


def records(preload) -> list:
    return [KVRecord(key, value, state) for key, value, state in preload]


def loaded(preload) -> AuthenticatedKVStore:
    store = AuthenticatedKVStore()
    store.load(records(preload))
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
    for target in (AuthenticatedKVStore(), unrelated):
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
    store = loaded([("k00", b"v", ReplicationState.NOT_REPLICATED)])
    mirror = copy.deepcopy(store)
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
    store = loaded([(key, b"v", ReplicationState.NOT_REPLICATED) for key in KEYS[:2]])
    mirror = copy.deepcopy(store)
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
    store = loaded(
        [(f"k{index:02d}", b"v", ReplicationState.NOT_REPLICATED) for index in range(64)]
    )
    mirror = copy.deepcopy(store)
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
