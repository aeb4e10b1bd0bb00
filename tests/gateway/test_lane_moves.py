"""A feed that moves between lanes ships only what changed since the copy its
destination already holds (``repro.gateway.feed_state``, versions and held
copies): a ping-pong crosses as deltas that carry the changed records, the
tree nodes above them and how many operations left the queue's head, and
lands the source's state exactly; a destination holding no copy gets the
feed whole; a delta offered to another version is refused typed; and an
evicted feed leaves no copy on any lane.

The first tests run lane workers in this interpreter, over deep copies of a
registry as a fork would hand them over; the rest drive real lane processes
through the engine.
"""

from __future__ import annotations

import copy
import multiprocessing

import pytest

from test_elastic_transfer import bounded
from test_feed_state import feed_view

from repro.ads.merkle import changed_nodes
from repro.common.errors import WireError
from repro.common.hashing import DIGEST_SIZE_BYTES
from repro.common.types import KVRecord
from repro.core.config import GrubConfig
from repro.gateway import (
    EpochScheduler,
    FeedRegistry,
    FeedSpec,
    GasAwareShardPlanner,
    executor,
    feed_state,
)
from repro.gateway.executor import (
    LaneConfig,
    LaneEngine,
    _Lane,
    _LaneWorker,
    ipc_summary,
    run_epoch_phases,
    shipped_spec,
)
from repro.gateway.placement import FeedMove
from repro.gateway.registry import MAIN_VERSION
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.workloads.synthetic import SyntheticWorkload

EPOCH_SIZE = 8


def spec_of(feed_id: str, **store) -> FeedSpec:
    """A feed of 100 preloaded records: its workload's inserts fit the
    padded tree, so a delta's nodes are all above changed records."""
    return FeedSpec(
        feed_id=feed_id,
        config=GrubConfig(epoch_size=EPOCH_SIZE, algorithm="memoryless", k=1),
        preload=[KVRecord.make(f"{feed_id}-{j:03d}", bytes(32)) for j in range(100)],
        **store,
    )


def workload_of(feed_id: str, operations: int = 120, seed: int = 7) -> list:
    return SyntheticWorkload(
        read_write_ratio=2.0,
        num_operations=operations,
        num_keys=6,
        key_prefix=f"{feed_id}-",
        seed=seed,
    ).operations()


def registry_of(*specs: FeedSpec) -> FeedRegistry:
    """A registry hosting ``specs``, each with its workload queued."""
    registry = FeedRegistry()
    for spec in specs:
        handle = registry.create_feed(spec)
        handle.begin_run(workload_of(spec.feed_id))
    return registry


# -- in-process lanes --------------------------------------------------------


class _NoCollector:
    """Stands in for the collector a lane process owns, so a worker built in
    this interpreter leaves the interpreter's collector alone."""

    collections = 0

    def __enter__(self):
        return self

    def boundary(self, insure: bool = False) -> None:
        pass


@pytest.fixture
def fork(monkeypatch):
    """``fork(registry, *adopts)``: a lane worker over a deep copy of
    ``registry`` — what a forked lane inherits — adopting ``adopts``."""
    monkeypatch.setattr(executor, "CollectorOwner", _NoCollector)
    return lambda registry, *adopts: _LaneWorker(
        LaneConfig(adopts=adopts), copy.deepcopy(registry)
    )


def run(lane: _LaneWorker, start: int, count: int) -> None:
    lane.set_assignment([(0, ["alpha"])])
    for epoch in range(start, start + count):
        lane.run_epoch(epoch, EPOCH_SIZE)


def lane_view(lane: _LaneWorker) -> dict:
    """Everything a host keeps of ``alpha``, down to every tree node (so
    every proof)."""
    store = lane.registry.get("alpha").system.sp_store
    return {**feed_view(lane.registry, "alpha"), "tree": store._tree._levels}


def move(source: _LaneWorker, destination: _LaneWorker, held, version: int):
    """Move ``alpha`` as the engine orders it; returns the state that crossed
    and the source's view of the feed as it left."""
    view = lane_view(source)
    [(blob, delta)] = source.migrate_out([("alpha", held, version)])
    state = feed_state.unpack(blob)
    assert delta == (state.base is not None)
    destination.install([(shipped_spec(spec_of("alpha")), blob)])
    assert lane_view(destination) == view
    return state, view


def assert_only_what_changed(state, held_store, source_records, touched) -> None:
    """The state's store part is the records that differ from the held
    copy's — each one a key the epochs since touched — and only the tree
    nodes above them."""
    base = {record.key: record for record in held_store.records()}
    shipped = {key for key, *_ in state.store.changed}
    diverged = {record.key for record in source_records if record != base.get(record.key)}
    assert diverged <= shipped <= touched
    assert (state.store.from_empty, state.store.deleted) == (False, [])
    slots = [slot for *_, slot in state.store.changed]
    positions = changed_nodes(slots, len(held_store), state.store.slot_count)
    assert len(state.store.nodes) == DIGEST_SIZE_BYTES * sum(map(len, positions))
    # Nothing beside the changed leaves' paths: a path per record at most.
    assert sum(map(len, positions)) <= len(slots) * len(positions)


def test_a_ping_pong_ships_deltas_and_lands_the_source_state(fork):
    """A → B → A → B: lane B holds the fork copy, so the first move is cut
    against the main mirror's version; each later one against the version
    the destination kept when the feed last left it."""
    main = registry_of(spec_of("alpha"))
    workload = workload_of("alpha")
    lane_a, lane_b = fork(main, "alpha"), fork(main)
    assert lane_b._held["alpha"][0] == MAIN_VERSION
    run(lane_a, 0, 2)

    state, view = move(lane_a, lane_b, MAIN_VERSION, 1)
    assert (state.base, state.version) == (MAIN_VERSION, 1)
    # The queue crossed as what left its head: the 16 operations driven.
    assert (state.consumed, state.queue) == (2 * EPOCH_SIZE, [])
    touched = {operation.key for operation in workload[: 2 * EPOCH_SIZE]}
    main_store = main.get("alpha").system.sp_store
    assert_only_what_changed(state, main_store, view["records"], touched)
    assert "alpha" not in lane_a.registry and lane_a._held["alpha"][0] == 1

    run(lane_b, 2, 2)
    held = copy.deepcopy(lane_a._held["alpha"][1].system.sp_store)
    state, view = move(lane_b, lane_a, 1, 2)
    assert (state.base, state.version, state.consumed) == (1, 2, 2 * EPOCH_SIZE)
    assert state.queue == []
    touched = {operation.key for operation in workload[2 * EPOCH_SIZE :]}
    assert_only_what_changed(state, held, view["records"], touched)

    run(lane_a, 4, 1)
    state, _ = move(lane_a, lane_b, 2, 3)
    assert (state.base, state.version) == (2, 3)
    assert lane_a._held["alpha"][0] == 3 and "alpha" not in lane_b._held


def test_a_delta_offered_to_another_version_is_a_wire_error(fork):
    main = registry_of(spec_of("alpha"))
    lane_a, lane_b, lane_c = fork(main, "alpha"), fork(main), fork(main)
    run(lane_a, 0, 1)
    move(lane_a, lane_b, MAIN_VERSION, 1)
    run(lane_b, 1, 1)
    # Cut against version 1, which lane A holds and lane C does not.
    [(blob, delta)] = lane_b.migrate_out([("alpha", 1, 2)])
    assert delta
    spec = shipped_spec(spec_of("alpha"))
    with pytest.raises(WireError, match="version 1, but this lane holds version 0"):
        lane_c.install([(spec, blob)])
    assert "alpha" not in lane_c.registry and lane_c._held["alpha"][0] == MAIN_VERSION
    bare = fork(FeedRegistry())
    with pytest.raises(WireError, match="version 1, but this lane holds no copy"):
        bare.install([(spec, blob)])
    assert "alpha" not in bare.registry
    lane_a.install([(spec, blob)])
    assert "alpha" in lane_a.registry


def test_eviction_drops_every_held_copy(fork):
    main = registry_of(spec_of("alpha"))
    lane_a, lane_b = fork(main, "alpha"), fork(main)
    run(lane_a, 0, 1)
    move(lane_a, lane_b, MAIN_VERSION, 1)
    lane_b.teardown("alpha", 1)
    lane_a.drop("alpha")
    assert "alpha" not in lane_b.registry and "alpha" not in lane_b._held
    assert "alpha" not in lane_a.registry and "alpha" not in lane_a._held


# -- real lanes, through the engine ------------------------------------------


def run_inline(registry: FeedRegistry, epochs: int) -> FeedRegistry:
    """``registry``'s ``alpha`` run ``epochs`` epochs inline."""
    for epoch in range(epochs):
        run_epoch_phases(
            registry,
            [(0, ["alpha"])],
            epoch,
            EPOCH_SIZE,
            settle=registry.chain.land,
            tracer=Tracer(enabled=False),
        )
    return registry


def ping_pong(registry: FeedRegistry, moves: int, *, admitted: bool = False):
    """Host ``alpha`` on lane 0 and bounce it between lanes 0 and 1 ``moves``
    times, two epochs on each host; returns the engine (lanes still up) and
    the epochs run.  ``admitted``: ``alpha`` joins the main registry only
    once the lanes run, so no lane forks with it."""
    engine = LaneEngine(2, registry, MetricsRegistry())
    if admitted:
        spec = registry.remove_feed("alpha").spec
        engine.ensure_lanes(2, {})
        registry.create_feed(spec).begin_run(workload_of("alpha"))
    else:
        # As placement does before any lane forks: no fork copy holds an opener.
        feed_state.close_store(registry.get("alpha"))
        engine.ensure_lanes(2, {0: ["alpha"]})
    if admitted:
        engine.transfer(
            [FeedMove("alpha", None, 0, None)],
            lambda feed_id: feed_state.detach(registry.get(feed_id)),
        )
    lane, epoch = 0, 0
    for step in range(moves + 1):
        engine.submit(epoch, 2, EPOCH_SIZE, {lane: [(0, ["alpha"])]})
        engine.results(epoch)
        engine.results(epoch + 1)
        epoch += 2
        if step < moves:
            engine.transfer(
                [FeedMove("alpha", lane, 1 - lane, "regrouped")], lambda feed_id: b""
            )
            lane = 1 - lane
    return engine, epoch


def fold_back(engine: LaneEngine, registry: FeedRegistry) -> list:
    """The run end: every lane's state applied to the main mirror; returns
    the versions the states were cut against."""
    states = engine.collect()
    for state in states:
        feed_state.apply(registry.get(state.feed_id), state)
    return [state.base for state in states]


def test_ping_pong_through_real_lanes_is_serial_identical():
    """Lane 1 holds the fork copy, so every move is a delta and the copy the
    feed ends on descends from the main mirror: its run-end state is a delta
    against it, and the main mirror lands where an inline run leaves it."""
    registry = registry_of(spec_of("alpha"))
    before = set(multiprocessing.active_children())

    def body():
        engine, epochs = ping_pong(registry, moves=3)
        try:
            ipc = ipc_summary(engine.metrics)
            bases = fold_back(engine, registry)
        finally:
            engine.shutdown()
        return ipc, bases, epochs

    ipc, bases, epochs = bounded(body)
    assert bases == [MAIN_VERSION]
    assert ipc["migrations_total"] == 3
    assert ipc["migration_deltas_total"] == 3
    whole = len(feed_state.pack(feed_state.capture(registry.get("alpha"))))
    assert ipc["migration_delta_bytes_total"] * 2 < ipc["migration_deltas_total"] * whole
    inline = run_inline(registry_of(spec_of("alpha")), epochs)
    assert feed_view(registry, "alpha") == feed_view(inline, "alpha")
    assert set(multiprocessing.active_children()) <= before


def test_a_feed_admitted_after_the_lanes_forked_first_moves_whole():
    """No lane holds a feed admitted once the lanes run: it is installed
    whole, its first move ships whole, and the move back is a delta."""
    registry = registry_of(spec_of("alpha"))

    def body():
        engine, _ = ping_pong(registry, moves=2, admitted=True)
        try:
            return ipc_summary(engine.metrics)
        finally:
            engine.shutdown()

    ipc = bounded(body)
    assert (ipc["installs_total"], ipc["migrations_total"]) == (1, 2)
    assert ipc["migration_deltas_total"] == 1


def test_an_lsm_ping_pong_keeps_a_single_opener(tmp_path):
    """Every re-hosted copy of an LSM-backed feed reopens the directory the
    last host closed: a second opener would raise in its lane, so a clean
    run proves each move handed the directory over, and the store folds back
    onto the main mirror, serial-identical, backing included."""
    spec = spec_of("alpha", store_backend="lsm", store_directory=tmp_path / "lanes")
    registry = registry_of(spec)

    def body():
        engine, epochs = ping_pong(registry, moves=3)
        try:
            fold_back(engine, registry)
        finally:
            engine.shutdown()
        return epochs

    epochs = bounded(body)
    serial = run_inline(
        registry_of(
            spec_of("alpha", store_backend="lsm", store_directory=tmp_path / "serial")
        ),
        epochs,
    )
    store = registry.get("alpha").system.sp_store
    reference = serial.get("alpha").system.sp_store
    assert not store.backing.closed
    assert store.root == reference.root
    assert list(store.backing.items()) == list(reference.backing.items())


def test_every_lane_holds_the_feeds_it_did_not_adopt_at_the_main_version():
    """Every lane forks with the main registry, so the engine records each
    feed a lane did not adopt as held there at the main mirror's version —
    lanes spawned together and a lane spawned later alike."""
    registry = registry_of(spec_of("alpha"), spec_of("beta"), spec_of("gamma"))
    before = set(multiprocessing.active_children())

    def body():
        engine = LaneEngine(3, registry, MetricsRegistry())
        try:
            assert engine.ensure_lanes(2, {0: ["alpha"], 1: ["beta"]}) == [0, 1]
            assert engine._copies == {
                "alpha": {1: MAIN_VERSION},
                "beta": {0: MAIN_VERSION},
                "gamma": {0: MAIN_VERSION, 1: MAIN_VERSION},
            }
            assert engine.ensure_lanes(3, {}) == [2]
            return copy.deepcopy(engine._copies)
        finally:
            engine.shutdown()

    assert bounded(body) == {
        "alpha": {1: MAIN_VERSION, 2: MAIN_VERSION},
        "beta": {0: MAIN_VERSION, 2: MAIN_VERSION},
        "gamma": {0: MAIN_VERSION, 1: MAIN_VERSION, 2: MAIN_VERSION},
    }
    assert set(multiprocessing.active_children()) <= before


def test_an_evicted_feed_is_dropped_by_every_lane_holding_it(monkeypatch):
    """After a ping-pong lane 0 hosts the feed and lane 1 holds the copy it
    left; evicting the feed orders lane 1 to drop that copy, and the engine
    then knows of no copy anywhere."""
    orders = []
    genuine = _Lane.send

    def send(lane, method, epoch, *args, **kwargs):
        orders.append((lane.index, method, args))
        return genuine(lane, method, epoch, *args, **kwargs)

    monkeypatch.setattr(_Lane, "send", send)
    registry = registry_of(spec_of("alpha"))

    def body():
        engine, epochs = ping_pong(registry, moves=2)
        try:
            assert engine._copies["alpha"] == {1: 2}
            del orders[:]
            bill = engine.teardown(0, "alpha", epochs)
            assert "alpha" not in engine._copies
            assert engine.collect() == []
            return bill
        finally:
            engine.shutdown()

    bill = bounded(body)
    assert bill.departed_epoch is not None
    assert orders[:2] == [(0, "teardown", ("alpha", 6)), (1, "drop", ("alpha",))]


def test_no_fork_copy_holds_an_lsm_opener(tmp_path, monkeypatch):
    """A lane that forks while the main process still hosts an LSM-backed
    feed another lane is about to install holds a copy of it; that copy
    must not carry the main process's open directory claim, or re-hosting
    it later would write through a stale opener.  So whenever a lane starts,
    no feed in the main registry holds an open opener — and two admissions
    landing as one lane spawns (one adopted there, one installed into the
    running lane) keep the run serial-identical."""
    open_at_spawn = []
    genuine = _Lane.__init__

    def spawn(lane, index, config, registry, epoch=0):
        open_at_spawn.extend(
            handle.feed_id
            for handle in registry.handles
            if not handle.system.sp_store.backing.closed
        )
        genuine(lane, index, config, registry, epoch)

    monkeypatch.setattr(_Lane, "__init__", spawn)

    def churn(execution_mode, directory):
        def lsm(feed_id):
            return spec_of(feed_id, store_backend="lsm", store_directory=directory / feed_id)

        registry = FeedRegistry()
        registry.create_feed(lsm("alpha"))
        scheduler = EpochScheduler(
            registry,
            num_workers=2 if execution_mode == "process" else 1,
            execution_mode=execution_mode,
            planner=GasAwareShardPlanner(block_gas_fraction=0.01),
        )
        for feed_id in ("beta", "gamma"):
            scheduler.admit(lsm(feed_id), workload_of(feed_id), at_epoch=2)
        return scheduler.run({"alpha": workload_of("alpha")})

    serial = churn("serial", tmp_path / "serial")
    process = bounded(lambda: churn("process", tmp_path / "process"))
    assert process.fingerprint() == serial.fingerprint()
    assert process.ipc["lane_spawns_total"] == 2
    assert open_at_spawn == []
