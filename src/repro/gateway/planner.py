"""Shard planning for the elastic gateway fleet.

A shard is the unit of settlement: every epoch each shard lands **one**
batched ``deliver_batch`` and **one** grouped ``update_batch`` transaction,
and each of those transactions is mined into its own block.  How feeds are
grouped into shards therefore decides two things at once:

* **batching efficiency** — the more feeds share a shard, the further the 21k
  transaction base cost is amortised;
* **block feasibility** — a shard's settlement transaction must fit inside
  the chain's ``block_gas_limit``; a plan that packs too much verification,
  replication and callback work into one shard produces blocks no real chain
  would accept (the simulator surfaces this as the
  ``block_gas_limit_overflow`` ledger category).

:class:`RoundRobinPlanner` is the original fixed plan (deal feeds into
``num_shards`` groups and hope they fit).  :class:`GasAwareShardPlanner`
replaces hope with accounting: it keeps an EWMA of every feed's trailing
per-epoch gas (straight from the gas ledger's per-feed scopes, via the
scheduler's epoch summaries) and bin-packs feeds first-fit-decreasing into
shards whose estimated load stays under ``block_gas_fraction`` of the block
gas limit.  The per-epoch estimate usually *over*-states the settlement
transaction's gas (it also contains the feed's driving-phase internal-call
gas, which never lands in a block), but it is still an estimate: a freshly
admitted burst tenant's EWMA lags its real load, so a block can exceed the
planned budget by a modest factor.  The protection against the *limit* is
therefore the fraction itself — the default budgets only half the block.  The
realised worst case on a churning fleet (32 residents, 10 joins, 10 leaves,
4 burst tenants, seed 20260730, 128 ops a feed, a 2% fraction = 200k gas):
the largest settlement block used 223 968 gas, a ~12% budget excursion that
leaves 45× headroom to the 10M limit; with every resident bursting over the
same 4 hot keys in the same epochs it was 260 452 gas (+30%, 71 over-budget
bins of 451, utilisation max 1.30) — still 38× under the limit.

Every planner must be deterministic: given the same feed list and the same
observation history it must return the same plan, whatever ``num_workers``
the scheduler runs with, because the plan shapes batching and therefore the
fingerprint-pinned telemetry.  Both planners only use exact arithmetic over
deterministic inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.common.errors import ConfigurationError

#: Bin-utilization histogram bounds: fraction of the per-shard gas budget one
#: packed bin's estimated load occupies (>1 = the packer accepted an
#: over-budget single-feed bin).
_UTILIZATION_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0, 4.0)

#: Shards-per-plan histogram bounds (a count, not a latency).
_SHARD_COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Weight of the newest observation in a feed's per-epoch gas EWMA.
EWMA_ALPHA = 0.25

#: Estimate for a feed with no history yet (a freshly admitted tenant):
#: deliberately generous, so new tenants start in roomy shards and earn denser
#: packing as their history accrues.
BOOTSTRAP_GAS = 250_000


class ShardPlanner:
    """Strategy interface: partition the active fleet into settlement shards."""

    #: Optional :class:`repro.obs.Observability` hook (set by the hosting
    #: scheduler).  Observation-only: planners may record what they decided,
    #: never read anything back — plans depend only on feed lists and
    #: observed gas, which keeps every backend's plans identical.
    obs = None

    def plan(self, feed_ids: Sequence[str], *, block_gas_limit: int) -> List[List[str]]:
        """Group ``feed_ids`` (admission order) into shards for one epoch."""
        raise NotImplementedError

    def observe(self, feed_id: str, epoch_gas: int) -> None:
        """Fold one settled epoch's per-feed gas into the planner's history."""

    def forget(self, feed_id: str) -> None:
        """Drop a departed feed's history (its id may be reused later)."""


@dataclass
class RoundRobinPlanner(ShardPlanner):
    """The fixed plan of the original engine: deal feeds into ``num_shards``.

    Gas-oblivious but stable — a fixed fleet keeps the same plan every epoch —
    so it remains the default for workloads that are known to fit.
    """

    num_shards: int = 1

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")

    def plan(self, feed_ids: Sequence[str], *, block_gas_limit: int) -> List[List[str]]:
        groups = [
            list(feed_ids[index :: self.num_shards]) for index in range(self.num_shards)
        ]
        return [group for group in groups if group]


@dataclass
class GasAwareShardPlanner(ShardPlanner):
    """First-fit-decreasing bin packing under a per-shard block gas budget.

    Attributes:
        block_gas_fraction: the fraction of ``block_gas_limit`` one shard's
            estimated epoch gas may occupy.  The default leaves half the block
            as headroom for estimate error and replication bursts.

    The packer is migration-aware.  In process mode a feed that changes
    *shard* may also change *lane*, and moving a lane means serialising the
    feed's whole mirror across the process boundary.  So before the FFD pass
    places a feed, the packer first tries the bin index the feed occupied in
    the previous plan and keeps it there while that bin still fits the
    budget.  This only consults the planner's own previous plan, so every
    execution backend computes the identical plan sequence.
    """

    block_gas_fraction: float = 0.5
    _estimates: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Bin index each feed occupied in the previous plan (where the packer
    #: tries it first); dropped on :meth:`forget`.
    _previous_bins: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.block_gas_fraction <= 1.0:
            raise ConfigurationError("block_gas_fraction must be in (0, 1]")

    def estimate(self, feed_id: str) -> float:
        """The feed's current per-epoch gas estimate (bootstrap if unseen)."""
        return self._estimates.get(feed_id, float(BOOTSTRAP_GAS))

    def observe(self, feed_id: str, epoch_gas: int) -> None:
        previous = self._estimates.get(feed_id)
        if previous is None:
            # First real observation replaces the bootstrap outright; blending
            # it would let an arbitrary constant linger for many epochs.
            self._estimates[feed_id] = float(epoch_gas)
        else:
            self._estimates[feed_id] = (
                EWMA_ALPHA * epoch_gas + (1.0 - EWMA_ALPHA) * previous
            )

    def forget(self, feed_id: str) -> None:
        self._estimates.pop(feed_id, None)
        self._previous_bins.pop(feed_id, None)

    def plan(self, feed_ids: Sequence[str], *, block_gas_limit: int) -> List[List[str]]:
        if not feed_ids:
            return []
        budget = self.block_gas_fraction * block_gas_limit
        previous_bins = self._previous_bins
        # Heaviest feeds first (feed id breaks ties) — the classic FFD
        # ordering, which keeps the shard count near optimal.
        ranked = sorted(feed_ids, key=lambda feed_id: (-self.estimate(feed_id), feed_id))
        shards: List[List[str]] = []
        loads: List[float] = []
        for feed_id in ranked:
            estimate = self.estimate(feed_id)
            # Keep the feed in last plan's bin while that bin still fits, so
            # a process-mode fleet doesn't thrash mirrors between lanes.
            previous = previous_bins.get(feed_id)
            if (
                previous is not None
                and previous < len(shards)
                and loads[previous] + estimate <= budget
            ):
                shards[previous].append(feed_id)
                loads[previous] += estimate
                continue
            for index in range(len(shards)):
                if loads[index] + estimate <= budget:
                    shards[index].append(feed_id)
                    loads[index] += estimate
                    break
            else:
                # A feed estimated above the budget still gets a shard of its
                # own — shards cannot split below feed granularity, and the
                # estimate overstates the actual settlement transaction.
                shards.append([feed_id])
                loads.append(estimate)
        self._previous_bins = {
            feed_id: index for index, shard in enumerate(shards) for feed_id in shard
        }
        obs = self.obs
        if obs is not None:
            obs.counter("planner_plans_total").inc()
            obs.histogram(
                "planner_shards_per_plan", buckets=_SHARD_COUNT_BUCKETS
            ).observe(len(shards))
            overflow_bins = 0
            for load in loads:
                utilization = load / budget if budget > 0 else 0.0
                obs.histogram(
                    "planner_bin_utilization", buckets=_UTILIZATION_BUCKETS
                ).observe(utilization)
                if load > budget:
                    overflow_bins += 1
            if overflow_bins:
                # Bins whose *estimate* already exceeds the budget: feeds the
                # packer had to give a dedicated over-budget shard.
                obs.counter("planner_overflow_bins_total").inc(overflow_bins)
        return shards
