"""Placement-aware shard → lane assignment for the elastic process backend.

The planner (:mod:`repro.gateway.planner`) groups feeds into settlement
shards; which *lane* executes a shard is a process-mode-only concern that no
fingerprint ever sees.  Moving a feed between lanes means serialising its
whole mirror (records, Merkle levels, contract state) across two process
boundaries, so the assignment keeps state where it already lives: each shard
goes to the live lane that hosts most of its feeds.  A plan that merely
renumbers its bins, or keeps its groups, therefore moves nothing; only a
real regrouping or a retiring lane forces a move.

Affinity alone would happily pile every shard onto the lane that happened to
receive the first ones, so it is bounded by :func:`balance_cap` on the
planner's own load estimates — the greedy list-scheduling bound, which the
least-loaded lane always satisfies, so the cap can be honoured for every
input.

Everything here is a pure function of its arguments (no hashing order, no
clocks), so equal inputs give equal assignments.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence

#: Why a feed changed lanes: its shard's majority lives on another lane
#: (the plan genuinely regrouped it) ...
MOVE_REGROUPED = "regrouped"
#: ... or the lane hosting it is being retired (the plan needs fewer lanes).
MOVE_LANE_RETIRED = "lane_retired"


class FeedMove(NamedTuple):
    """One feed's relocation for the coming epoch."""

    feed_id: str
    #: The lane hosting the feed now; ``None`` while the main process still
    #: hosts it (initial placement, or an admission's first plan).
    source: Optional[int]
    destination: int
    #: ``MOVE_REGROUPED`` / ``MOVE_LANE_RETIRED``; ``None`` for an install.
    reason: Optional[str]


def balance_cap(shard_loads: Sequence[float], lanes: int) -> float:
    """The most load one lane may carry: ``total / lanes`` plus
    ``(1 - 1/lanes)`` of the heaviest shard.

    Shards are indivisible, so no tighter bound is always reachable — but
    this one is: whatever was placed before, the least-loaded lane carries at
    most ``(total - load) / lanes`` when a shard of ``load`` arrives.
    """
    return sum(shard_loads) / lanes + (1.0 - 1.0 / lanes) * max(shard_loads)


def assign_lanes(
    shard_plan: Sequence[Sequence[str]],
    desired_lanes: int,
    feed_lane: Mapping[str, int],
    estimate: Callable[[str], float],
) -> List[int]:
    """Map every shard of ``shard_plan`` to a lane in ``range(desired_lanes)``.

    ``feed_lane`` is the current feed → lane map (feeds not yet hosted by any
    lane are absent; lanes ``>= desired_lanes`` are retiring and attract
    nothing) and ``estimate`` the planner's per-feed load estimate.  Heaviest
    shards choose first; each takes the lane hosting most of its feeds whose
    load stays within :func:`balance_cap`, falling back to the least-loaded
    lane.  Returns the lane of each shard, by shard index.
    """
    loads = [sum(estimate(feed_id) for feed_id in shard) for shard in shard_plan]
    if not loads:
        return []
    cap = balance_cap(loads, desired_lanes)
    lanes = range(desired_lanes)
    lane_load = [0.0] * desired_lanes
    assigned = [0] * len(loads)
    for index in sorted(range(len(loads)), key=lambda i: (-loads[i], i)):
        hosted = [0] * desired_lanes
        for feed_id in shard_plan[index]:
            lane = feed_lane.get(feed_id)
            if lane is not None and lane < desired_lanes:
                hosted[lane] += 1
        preferred = sorted(lanes, key=lambda l: (-hosted[l], lane_load[l], l))
        lane = next(
            (l for l in preferred if lane_load[l] + loads[index] <= cap),
            # Only reachable through float rounding at the cap's edge.
            min(lanes, key=lambda l: (lane_load[l], l)),
        )
        assigned[index] = lane
        lane_load[lane] += loads[index]
    return assigned


def plan_moves(
    shard_plan: Sequence[Sequence[str]],
    shard_lanes: Sequence[int],
    feed_lane: Mapping[str, int],
    desired_lanes: int,
) -> List[FeedMove]:
    """The feeds an assignment relocates, in plan order: every feed whose
    shard's lane differs from the lane (or main process) hosting it."""
    moves: List[FeedMove] = []
    for shard, lane in zip(shard_plan, shard_lanes):
        for feed_id in shard:
            source = feed_lane.get(feed_id)
            if source == lane:
                continue
            if source is None:
                reason = None
            elif source >= desired_lanes:
                reason = MOVE_LANE_RETIRED
            else:
                reason = MOVE_REGROUPED
            moves.append(FeedMove(feed_id, source, lane, reason))
    return moves
