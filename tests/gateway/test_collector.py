"""The gateway owns the interpreter's collector while it runs — and hands it
back exactly as it found it, whatever the run did."""

from __future__ import annotations

import asyncio
import gc
import threading
import weakref

import pytest

from repro.core.config import GrubConfig
from repro.frontdoor import FrontDoor, Request
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec, RoundRobinPlanner
from repro.gateway.runtime import CollectorOwner, _Heap
from repro.obs import Observability
from repro.workloads.synthetic import SyntheticWorkload

from export_checks import parse_prometheus

EPOCH = 4


def build_fleet(n_feeds: int = 3, n_ops: int = 12):
    registry = FeedRegistry()
    workloads = {}
    for index in range(n_feeds):
        feed_id = f"feed-{index}"
        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                config=GrubConfig(epoch_size=EPOCH, algorithm="memoryless", k=1),
            )
        )
        workloads[feed_id] = list(
            SyntheticWorkload(
                read_write_ratio=2.0,
                num_operations=n_ops,
                num_keys=3,
                key_prefix=f"{feed_id}-k",
                seed=11 + index,
            ).operations()
        )
    return registry, workloads


def collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.fixture(autouse=True)
def interpreter_collector():
    """Every test starts from, and must leave, the interpreter's default."""
    before = collector_state()
    assert before[0] and not before[2]
    yield
    after = collector_state()
    gc.unfreeze()
    gc.enable()
    assert after == before


class Probe(RoundRobinPlanner):
    """A planner that looks at the collector from inside the run: ``plan`` is
    called at the top of every epoch, ``observe`` during settle feedback —
    right before the boundary."""

    def __init__(self, on_plan=None, on_observe=None):
        super().__init__(1)
        self.on_plan = on_plan
        self.on_observe = on_observe
        self.epochs = 0

    def plan(self, feed_ids, *, block_gas_limit):
        if self.on_plan is not None:
            self.on_plan(self.epochs)
        self.epochs += 1
        return super().plan(feed_ids, block_gas_limit=block_gas_limit)

    def observe(self, feed_id, epoch_gas):
        if self.on_observe is not None and feed_id == "feed-0":
            self.on_observe(self.epochs - 1)


def drive_live(scheduler, workloads):
    door = FrontDoor(scheduler, held=True)

    async def main():
        async with door.serving() as d:
            tasks = [
                asyncio.create_task(d.submit(Request(tenant=feed_id, operation=op)))
                for feed_id, operations in workloads.items()
                for op in operations
            ]
            await asyncio.sleep(0)
            d.release()
            responses = await asyncio.gather(*tasks)
            d.close()
        return responses

    return door, asyncio.run(main())


class TestOwnership:
    def test_run_owns_the_collector_and_restores_it(self):
        registry, workloads = build_fleet()
        seen = []
        probe = Probe(on_plan=lambda epoch: seen.append(collector_state()))
        before = collector_state()
        EpochScheduler(registry, epoch_size=EPOCH, planner=probe).run(workloads)
        assert collector_state() == before
        assert seen
        for enabled, threshold, frozen in seen:
            assert not enabled and frozen > 0
            assert threshold == before[1]

    def test_restored_when_an_epoch_raises(self):
        registry, workloads = build_fleet()

        def boom(epoch):
            if epoch == 1:
                raise RuntimeError("epoch 1 fails")

        before = collector_state()
        scheduler = EpochScheduler(
            registry, epoch_size=EPOCH, planner=Probe(on_observe=boom)
        )
        with pytest.raises(RuntimeError, match="epoch 1 fails"):
            scheduler.run(workloads)
        assert collector_state() == before

    def test_restored_after_a_live_door_run(self):
        registry, workloads = build_fleet()
        seen = []
        probe = Probe(on_plan=lambda epoch: seen.append(collector_state()))
        before = collector_state()
        scheduler = EpochScheduler(registry, epoch_size=EPOCH, planner=probe)
        door, responses = drive_live(scheduler, workloads)
        assert all(response.ok for response in responses)
        assert collector_state() == before
        assert seen and all(not enabled and frozen for enabled, _, frozen in seen)

    def test_restored_after_a_process_mode_run(self):
        registry, workloads = build_fleet(n_feeds=4)
        before = collector_state()
        EpochScheduler(
            registry, epoch_size=EPOCH, num_shards=2, num_workers=2,
            execution_mode="process",
        ).run(workloads)
        assert collector_state() == before

    def test_overlapping_runs_last_one_out_restores(self):
        inside, proceed = threading.Event(), threading.Event()

        def park(epoch):
            if epoch == 1:
                inside.set()
                assert proceed.wait(timeout=30)

        before = collector_state()
        registry_a, workloads_a = build_fleet()
        outer = EpochScheduler(
            registry_a, epoch_size=EPOCH, planner=Probe(on_plan=park)
        )
        thread = threading.Thread(target=outer.run, args=(workloads_a,))
        thread.start()
        try:
            assert inside.wait(timeout=30)
            registry_b, workloads_b = build_fleet()
            EpochScheduler(registry_b, epoch_size=EPOCH).run(workloads_b)
            # The inner run is over, the outer one is not: still owned.
            assert not gc.isenabled() and gc.get_freeze_count() > 0
        finally:
            proceed.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert collector_state() == before

    def test_a_disabled_collector_comes_back_disabled(self):
        registry, workloads = build_fleet()
        gc.disable()
        try:
            EpochScheduler(registry, epoch_size=EPOCH).run(workloads)
            assert not gc.isenabled() and gc.get_freeze_count() == 0
        finally:
            gc.enable()

    def test_a_frozen_heap_comes_back_frozen(self):
        registry, workloads = build_fleet()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            EpochScheduler(registry, epoch_size=EPOCH).run(workloads)
            # The caller's permanent generation is theirs: nothing was added
            # to it and it was not thawed (frozen objects may still have died).
            assert 0 < gc.get_freeze_count() <= frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()


class Node(list):
    """A list that can be weakly referenced."""


def litter_size() -> int:
    return 2 * gc.get_threshold()[0]


def big_cycle():
    """A dead reference cycle large enough to reach the gen-0 threshold on
    its own; returns a weak reference to watch it die."""
    ring = Node([] for _ in range(litter_size()))
    ring.append(ring)
    return weakref.ref(ring)


class TestBoundedness:
    def _watch(self, run):
        """Create a cycle in epoch 1's settle feedback; report, at the top of
        each later epoch, whether it is still alive."""
        sentinel = []
        alive_at = {}

        def make(epoch):
            if epoch == 1:
                sentinel.append(big_cycle())

        def look(epoch):
            if sentinel:
                alive_at[epoch] = sentinel[0]() is not None

        run(Probe(on_plan=look, on_observe=make))
        return alive_at

    def test_epoch_cycle_is_dead_within_two_boundaries(self):
        def run(probe):
            registry, workloads = build_fleet(n_ops=24)
            EpochScheduler(registry, epoch_size=EPOCH, planner=probe).run(workloads)

        alive_at = self._watch(run)
        assert alive_at and min(alive_at) == 2
        assert not alive_at[3]

    def test_epoch_cycle_is_dead_within_two_boundaries_behind_the_door(self):
        def run(probe):
            registry, workloads = build_fleet(n_ops=24)
            scheduler = EpochScheduler(registry, epoch_size=EPOCH, planner=probe)
            drive_live(scheduler, workloads)

        alive_at = self._watch(run)
        assert not alive_at[3]

    def _unfrozen_growth(self, epochs: int, litter: bool) -> int:
        """Tracked objects the run added by its last epoch (the permanent
        generation — everything older than the run — is not listed)."""
        registry, workloads = build_fleet(n_feeds=1, n_ops=epochs * EPOCH)
        sizes = []

        def look(epoch):
            sizes.append(len(gc.get_objects()))

        def make(epoch):
            if litter:
                big_cycle()

        EpochScheduler(
            registry, epoch_size=EPOCH, planner=Probe(on_plan=look, on_observe=make)
        ).run(workloads)
        assert len(sizes) >= epochs
        return sizes[-1] - sizes[0]

    def test_young_generation_does_not_accumulate(self):
        epochs = 300
        clean = self._unfrozen_growth(epochs, litter=False)
        littered = self._unfrozen_growth(epochs, litter=True)
        per_epoch_litter = litter_size()
        # Uncollected, the litter alone would add epochs x threshold objects;
        # collected at boundaries, at most a couple of epochs' worth is ever
        # outstanding on top of what the chain and rosters keep.
        assert littered - clean < 3 * per_epoch_litter
        assert clean < epochs * per_epoch_litter

    def test_lanes_collect_at_their_boundaries(self):
        # Long enough for each lane's young generation to cross the gen-0
        # threshold: a lane keeps no landed batch and no per-callback record,
        # so this fleet's lanes first cross it between epochs 30 and 40
        # (within 20 when they kept both); 60 leaves a margin.
        registry, workloads = build_fleet(n_feeds=4, n_ops=60 * EPOCH)
        fleet = EpochScheduler(
            registry, epoch_size=EPOCH, num_shards=2, num_workers=2,
            execution_mode="process",
        ).run(workloads)
        lanes = fleet.ipc["lanes"]
        assert len(lanes) == 2
        assert all(row["gc_collections"] >= 1 for row in lanes.values())


class TestPolicy:
    """The decision itself, on a private heap record (no ownership taken)."""

    def test_nothing_is_due_below_the_gen0_threshold(self):
        heap = _Heap()
        heap.old = 1 << 30
        gc.collect()
        assert heap.collect(insure=False) is None
        assert heap.collect(insure=True) is None

    def test_young_collection_once_the_threshold_is_reached(self):
        heap = _Heap()
        heap.old = 1 << 30
        gc.collect()
        gc.disable()
        try:
            keep = [[] for _ in range(gc.get_threshold()[0])]
            assert heap.collect(insure=False) == 1
        finally:
            gc.enable()
        assert heap.pending >= len(keep)

    def test_insurance_once_survivors_outnumber_the_old_generation(self):
        heap = _Heap()
        heap.old, heap.pending = 400, 401
        gc.collect()
        # A run that ends takes none; one that may not, does — cycles or no.
        assert heap.collect(insure=False) is None
        assert heap.collect(insure=True) == 2
        assert heap.pending == 0 and heap.old > 400

    def test_no_insurance_below_doubling(self):
        heap = _Heap()
        heap.old, heap.pending = 400, 399
        gc.collect()
        assert heap.collect(insure=True) is None

    def test_cpythons_ratio_once_cycles_were_seen(self):
        heap = _Heap()
        heap.old, heap.pending, heap.reclaimed = 400, 101, 3
        gc.collect()
        assert heap.collect(insure=False) == 2
        # It came back empty: the evidence is spent.
        assert heap.reclaimed == 0
        heap.pending = 101
        assert heap.collect(insure=False) is None

    def test_not_due_below_cpythons_ratio(self):
        heap = _Heap()
        heap.old, heap.pending, heap.reclaimed = 400, 100, 3
        gc.collect()
        assert heap.collect(insure=True) is None

    def test_found_cycles_are_the_evidence(self):
        heap = _Heap()
        heap.old = 1 << 30
        gc.collect()
        gc.disable()
        try:
            big_cycle()
            assert heap.collect(insure=False) == 1
        finally:
            gc.enable()
        assert heap.reclaimed >= litter_size()


class TestObs:
    def test_collections_are_counted_and_timed_when_obs_is_on(self):
        registry, workloads = build_fleet(n_ops=24)
        obs = Observability()
        litter = Probe(on_observe=lambda epoch: big_cycle())
        scheduler = EpochScheduler(registry, epoch_size=EPOCH, planner=litter, obs=obs)
        scheduler.run(workloads)
        young = obs.registry.find("runtime_gc_collections_total", generation="1")
        assert young is not None and young.value >= 1
        seconds = obs.registry.find("runtime_gc_seconds")
        collections = sum(
            counter.value
            for counter in obs.registry.instruments()
            if counter.name == "runtime_gc_collections_total"
        )
        assert seconds.count == collections and seconds.total > 0.0
        exported = parse_prometheus(obs.export_prometheus())
        assert any(name.startswith("runtime_gc_collections_total") for name in exported)
        assert any(name.startswith("runtime_gc_seconds") for name in exported)

    def test_owner_counts_without_obs(self):
        with CollectorOwner() as collector:
            big_cycle()
            collector.boundary()
        assert collector.collections == 1
