"""The one form a feed changes interpreter in (``repro.gateway.feed_state``):
capture → pack → unpack → apply reproduces the feed; bytes that are not a
packed state of the expected feed install nothing; and the run-end state of
a feed a lane adopted, or installed from the main mirror, is a delta against
that mirror.
"""

from __future__ import annotations

import copy
import pickle
from collections import deque
from dataclasses import replace

import pytest

from repro.common.errors import WireError
from repro.common.types import EpochSummary, KVRecord, Operation
from repro.core.config import GrubConfig
from repro.gateway import (
    EpochScheduler,
    FeedRegistry,
    FeedSpec,
    feed_state,
)
from repro.gateway.feed_state import ActorState
from repro.gateway.registry import MAIN_VERSION, FeedVersion
from repro.workloads.synthetic import SyntheticWorkload


def spec_of(feed_id: str) -> FeedSpec:
    return FeedSpec(
        feed_id=feed_id,
        config=GrubConfig(epoch_size=8, algorithm="memoryless", k=1),
        preload=[KVRecord.make(f"{feed_id}-{j:02d}", bytes(32)) for j in range(8)],
    )


def workload_of(feed_id: str, operations: int = 48) -> list:
    return SyntheticWorkload(
        read_write_ratio=8.0,
        num_operations=operations,
        num_keys=6,
        key_prefix=f"{feed_id}-",
        seed=7,
    ).operations()


def hosted(*feed_ids: str) -> FeedRegistry:
    """A registry whose feeds have run six epochs — replicas on chain,
    entries in the memo, counters everywhere — with work still queued, a
    dirty key and a pending request."""
    registry = FeedRegistry()
    for feed_id in feed_ids:
        registry.create_feed(spec_of(feed_id))
    EpochScheduler(registry).run({feed_id: workload_of(feed_id) for feed_id in feed_ids})
    for handle in registry.handles:
        feed_id = handle.feed_id
        handle.queue = deque(workload_of(feed_id, operations=5))
        handle.dirty = {f"{feed_id}-03"}
        handle.system.drive_operation(
            Operation.read(f"{feed_id}-07"), EpochSummary(index=6, operations=1)
        )
    registry.watchdog.poll()
    return registry


def actors_of(handle) -> dict:
    actors = vars(ActorState.capture(handle))
    return {**actors, "cp_algorithm": vars(actors["cp_algorithm"])}


def feed_view(registry: FeedRegistry, feed_id: str) -> dict:
    handle = registry.get(feed_id)
    store = handle.system.sp_store
    return {
        "manager": feed_state._contract_state(handle.storage_manager),
        "consumer": feed_state._contract_state(handle.consumer),
        "on_chain_root": handle.storage_manager.root_hash(),
        "replicas": handle.storage_manager.replica_count(),
        "store_root": store.root,
        "records": store.records(),
        "actors": actors_of(handle),
        "bill": handle.bill,
        "memo": handle.memo,
        "queue": list(handle.queue),
        "dirty": handle.dirty,
    }


def test_a_packed_state_reproduces_the_feed_in_another_registry():
    source = hosted("alpha")
    view = feed_view(source, "alpha")
    assert view["replicas"] and view["memo"] and view["actors"]["sp_pending"]
    assert view["bill"].cache_hits and view["queue"] and view["dirty"]
    blob = feed_state.pack(feed_state.capture(source.get("alpha")))
    destination = FeedRegistry()
    feed_state.install(destination, replace(spec_of("alpha"), preload=None), blob)
    assert feed_view(destination, "alpha") == view
    # Capturing read the source; it did not change it.
    assert feed_view(source, "alpha") == view


def test_every_truncation_is_a_wire_error_and_installs_nothing():
    blob = feed_state.pack(feed_state.capture(hosted("alpha").get("alpha")))
    destination = FeedRegistry()
    spec = replace(spec_of("alpha"), preload=None)
    for cut in range(len(blob)):
        with pytest.raises(WireError):
            feed_state.install(destination, spec, blob[:cut])
    assert not destination.handles
    assert list(destination.chain.contracts) == [destination.router.address]


def test_a_blob_holding_something_else_is_a_wire_error():
    state = feed_state.capture(hosted("alpha").get("alpha"))
    destination = FeedRegistry()
    with pytest.raises(WireError, match="holds a dict, not a FeedState"):
        feed_state.install(destination, spec_of("alpha"), pickle.dumps(vars(state)))
    assert "alpha" not in destination


def test_a_state_for_another_feed_is_a_wire_error_and_touches_nothing():
    source = hosted("alpha", "beta")
    beta = feed_state.pack(feed_state.capture(source.get("beta")))
    destination = FeedRegistry()
    with pytest.raises(WireError, match="pairs spec 'alpha' with a snapshot of 'beta'"):
        feed_state.install(destination, spec_of("alpha"), beta)
    assert "alpha" not in destination and "beta" not in destination
    # The main side's way in — apply onto a handle that exists — refuses too.
    before = feed_view(source, "alpha")
    with pytest.raises(WireError, match="is for feed 'beta'.*hosts 'alpha'"):
        feed_state.apply(source.get("alpha"), feed_state.unpack(beta))
    assert feed_view(source, "alpha") == before


def test_a_delta_ships_the_queue_as_what_left_its_head():
    """Cut against a version that kept its queue's length, the queue crosses
    as how many operations left its head and nothing else (a lane's queues
    never grow), and the holder of that version drops as many off its own
    copy's head."""
    source = hosted("alpha")
    handle = source.get("alpha")
    store = handle.system.sp_store
    since = FeedVersion(MAIN_VERSION, store.baseline(), len(handle.queue))
    destination = copy.deepcopy(source)
    handle.queue.popleft()
    handle.queue.popleft()
    state = feed_state.unpack(feed_state.pack(feed_state.capture(handle, 1, since)))
    assert (state.base, state.version, state.consumed, state.queue) == (
        MAIN_VERSION,
        1,
        2,
        [],
    )
    feed_state.apply(destination.get("alpha"), state)
    assert feed_view(destination, "alpha") == feed_view(source, "alpha")


def test_a_version_that_kept_no_queue_length_gets_the_queue_whole():
    """The main mirror's version keeps no queue length (a run-end state is
    cut against it), so the queue ships whole and replaces the holder's."""
    source = hosted("alpha")
    handle = source.get("alpha")
    since = FeedVersion(MAIN_VERSION, handle.system.sp_store.baseline())
    destination = copy.deepcopy(source)
    destination.get("alpha").queue.clear()
    handle.queue.popleft()
    state = feed_state.capture(handle, 1, since)
    assert state.consumed is None and state.queue == list(handle.queue)
    feed_state.apply(destination.get("alpha"), state)
    assert list(destination.get("alpha").queue) == list(handle.queue) != []


def fleet_run(registry: FeedRegistry, admit, **process) -> object:
    """A busy feed and one whose workload is empty over two shards, plus an
    ``admit`` feed admitted at epoch 2 with a busy workload, when given."""
    scheduler = EpochScheduler(registry, num_shards=2, **process)
    if admit is not None:
        scheduler.admit(spec_of(admit), workload_of(admit), at_epoch=2)
    return scheduler.run({"busy": workload_of("busy"), "idle": []})


def run_recording_run_end_states(monkeypatch, admit=None):
    """:func:`fleet_run` on two lanes; returns the run-end states the main
    process applied, the registry and the fleet."""
    registry = FeedRegistry()
    for feed_id in ("busy", "idle"):
        registry.create_feed(spec_of(feed_id))
    states = {}
    genuine = feed_state.apply

    def recording(handle, state):
        states[state.feed_id] = state
        genuine(handle, state)

    monkeypatch.setattr(feed_state, "apply", recording)
    fleet = fleet_run(registry, admit, num_workers=2, execution_mode="process")
    return states, registry, fleet


def serial_roots(admit=None) -> dict:
    registry = FeedRegistry()
    for feed_id in ("busy", "idle"):
        registry.create_feed(spec_of(feed_id))
    fleet_run(registry, admit)
    return {handle.feed_id: handle.system.sp_store.root for handle in registry.handles}


def test_an_adopted_feed_ships_only_what_its_store_diverged_by(monkeypatch):
    """Both feeds are placed at epoch 0, each on a lane spawned for it there,
    which adopts it as it forks, and folds back as a delta against the main
    mirror."""
    states, registry, fleet = run_recording_run_end_states(monkeypatch)
    assert fleet.ipc["installs_total"] == 0
    idle, busy = states["idle"], states["busy"]
    assert (idle.base, busy.base) == (MAIN_VERSION, MAIN_VERSION)
    assert (idle.store.from_empty, busy.store.from_empty) == (False, False)
    assert (idle.store.changed, idle.store.deleted, idle.store.nodes) == ([], [], b"")
    assert 0 < len(busy.store.changed) < len(registry.get("busy").system.sp_store)
    roots = {handle.feed_id: handle.system.sp_store.root for handle in registry.handles}
    assert roots == serial_roots()


def test_a_feed_installed_into_a_running_lane_folds_back_as_a_delta(monkeypatch):
    """A feed admitted after epoch 0 joins a lane already running, so it is
    installed — whole, the lane never saw it — but its copy descends from the
    main mirror (the preload it was admitted with), so its run-end state is
    only what the run changed, cut against that mirror."""
    states, registry, fleet = run_recording_run_end_states(monkeypatch, admit="late")
    assert fleet.ipc["installs_total"] == 1
    late = states["late"]
    assert late.base == MAIN_VERSION and not late.store.from_empty
    store = registry.get("late").system.sp_store
    assert 0 < len(late.store.changed) < len(store)
    roots = {handle.feed_id: handle.system.sp_store.root for handle in registry.handles}
    assert roots == serial_roots(admit="late")
