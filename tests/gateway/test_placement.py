"""Unit properties of the elastic backend's shard → lane placement.

``assign_lanes`` / ``plan_moves`` are pure functions, so every property is
checked over seeded random plans without spawning a lane: a shard is never
split, no lane ``>= desired`` is ever named, equal inputs give equal
outputs, a plan whose groups equal the previous plan's moves nothing however
its bins are renumbered, a retiring lane is fully drained, and no lane's
estimated load exceeds the balance cap.
"""

from __future__ import annotations

import random

import pytest
from suite.workloads import WORKLOADS, churn_inputs
from test_elastic_properties import run_inputs

from repro.gateway import GasAwareShardPlanner
from repro.gateway.placement import (
    MOVE_LANE_RETIRED,
    MOVE_REGROUPED,
    assign_lanes,
    balance_cap,
    plan_moves,
)

SEEDS = list(range(40))


def random_case(seed: int):
    """A seeded ``(plan, desired, feed_lane, estimate)`` with some feeds
    unplaced and some on lanes beyond ``desired`` (retiring)."""
    rng = random.Random(seed)
    feeds = [f"feed-{index:02d}" for index in range(rng.randint(1, 24))]
    rng.shuffle(feeds)
    plan, cursor = [], 0
    while cursor < len(feeds):
        width = rng.randint(1, 4)
        plan.append(feeds[cursor : cursor + width])
        cursor += width
    desired = rng.randint(1, min(4, len(plan)))
    feed_lane = {
        feed_id: rng.randrange(desired + 2)
        for feed_id in feeds
        if rng.random() < 0.8
    }
    weights = {feed_id: float(rng.randint(1, 100) * 1000) for feed_id in feeds}
    return plan, desired, feed_lane, weights.__getitem__


def settle(plan, desired, feed_lane, estimate):
    """Apply one assignment: the feed → lane map after its moves."""
    lanes = assign_lanes(plan, desired, feed_lane, estimate)
    settled = dict(feed_lane)
    for move in plan_moves(plan, lanes, feed_lane, desired):
        settled[move.feed_id] = move.destination
    return lanes, settled


@pytest.mark.parametrize("seed", SEEDS)
def test_assignment_is_total_in_range_and_deterministic(seed):
    plan, desired, feed_lane, estimate = random_case(seed)
    lanes = assign_lanes(plan, desired, feed_lane, estimate)
    # One lane per shard — a shard is the unit, so it cannot be split — and
    # never a lane the pool is not keeping.
    assert len(lanes) == len(plan)
    assert all(0 <= lane < desired for lane in lanes)
    assert lanes == assign_lanes(plan, desired, dict(feed_lane), estimate)
    _, settled = settle(plan, desired, feed_lane, estimate)
    for shard, lane in zip(plan, lanes):
        assert {settled[feed_id] for feed_id in shard} == {lane}


@pytest.mark.parametrize("seed", SEEDS)
def test_no_lane_exceeds_the_balance_cap(seed):
    plan, desired, feed_lane, estimate = random_case(seed)
    lanes = assign_lanes(plan, desired, feed_lane, estimate)
    loads = [sum(estimate(feed_id) for feed_id in shard) for shard in plan]
    per_lane = [0.0] * desired
    for load, lane in zip(loads, lanes):
        per_lane[lane] += load
    assert max(per_lane) <= balance_cap(loads, desired) * (1 + 1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_groups_under_any_renumbering_move_nothing(seed):
    plan, desired, feed_lane, estimate = random_case(seed)
    _, settled = settle(plan, desired, feed_lane, estimate)
    rng = random.Random(seed + 1000)
    renumbered = [list(shard) for shard in plan]
    rng.shuffle(renumbered)
    for shard in renumbered:
        rng.shuffle(shard)
    lanes = assign_lanes(renumbered, desired, settled, estimate)
    assert plan_moves(renumbered, lanes, settled, desired) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_moves_name_every_displaced_feed_with_its_reason(seed):
    plan, desired, feed_lane, estimate = random_case(seed)
    lanes = assign_lanes(plan, desired, feed_lane, estimate)
    moves = {move.feed_id: move for move in plan_moves(plan, lanes, feed_lane, desired)}
    for shard, lane in zip(plan, lanes):
        for feed_id in shard:
            source = feed_lane.get(feed_id)
            if source == lane:
                assert feed_id not in moves
                continue
            move = moves[feed_id]
            assert (move.source, move.destination) == (source, lane)
            if source is None:
                assert move.reason is None
            elif source >= desired:
                # Every feed on a retiring lane moves, and says why.
                assert move.reason == MOVE_LANE_RETIRED
            else:
                assert move.reason == MOVE_REGROUPED


def test_affinity_cannot_pile_every_shard_on_one_lane():
    # A fleet that grew on lane 0 and now splits into two equal shards: the
    # second lane must take one of them, affinity notwithstanding.
    plan = [["a", "b"], ["c", "d"]]
    feed_lane = {feed_id: 0 for shard in plan for feed_id in shard}
    lanes = assign_lanes(plan, 2, feed_lane, lambda feed_id: 1.0)
    assert sorted(lanes) == [0, 1]
    moved = plan_moves(plan, lanes, feed_lane, 2)
    assert len(moved) == 2 and {move.reason for move in moved} == {MOVE_REGROUPED}


def test_regrouped_shard_follows_its_majority():
    feed_lane = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}
    plan = [["c", "a", "b"], ["d", "e"]]
    lanes = assign_lanes(plan, 2, feed_lane, lambda feed_id: 1.0)
    assert lanes == [0, 1]
    assert [move.feed_id for move in plan_moves(plan, lanes, feed_lane, 2)] == ["c"]


def test_empty_plan_assigns_nothing():
    assert assign_lanes([], 1, {}, lambda feed_id: 1.0) == []


#: Lane-to-lane moves the run below makes stay under this: it makes 59
#: ``regrouped`` + 4 ``lane_retired``, and the placement-blind
#: ``shard_index % lanes`` assignment makes 241 + 6 on the same schedule.
#: The count is a pure function of the seed and of what the feeds' epochs
#: cost against the planner's budget.
NO_THRASH_MOVES = 75


def test_placement_does_not_thrash_under_churn():
    """The one property here that needs the engine: the benchmark's own
    ``churn_lanes`` schedule (16 residents, 10 joins, 10 leaves) re-planned
    every epoch under a tight gas budget on up to 6 elastic lanes.  Any
    excess over the pinned count means shards are being assigned to lanes
    without regard to where their feeds already live."""
    workload = WORKLOADS["churn_lanes"]
    _, fleet = run_inputs(
        churn_inputs(workload, seed=20260730),
        num_workers=6,
        execution_mode="process",
        epoch_size=workload.epoch_size,
        # A deliver's records share one multiproof, which took a fifth off
        # what an epoch costs: as tight as 0.02 was before it.
        planner=GasAwareShardPlanner(block_gas_fraction=0.016),
    )
    ipc = fleet.ipc
    assert 1 <= ipc["migrations_total"] <= NO_THRASH_MOVES, ipc["migrations_by_reason"]
    assert ipc["lane_spawns_total"] >= 2 and ipc["lane_retirements_total"] >= 1
