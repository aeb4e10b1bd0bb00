"""Shard planners: round-robin compatibility, gas-aware packing, EWMA."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.gateway import GasAwareShardPlanner, RoundRobinPlanner
from repro.gateway.planner import BOOTSTRAP_GAS, EWMA_ALPHA

LIMIT = 10_000_000


class TestRoundRobinPlanner:
    def test_deals_feeds_in_order(self):
        planner = RoundRobinPlanner(num_shards=2)
        feeds = [f"feed-{i}" for i in range(5)]
        assert planner.plan(feeds, block_gas_limit=LIMIT) == [
            ["feed-0", "feed-2", "feed-4"],
            ["feed-1", "feed-3"],
        ]

    def test_empty_shards_dropped(self):
        planner = RoundRobinPlanner(num_shards=8)
        assert planner.plan(["a", "b"], block_gas_limit=LIMIT) == [["a"], ["b"]]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundRobinPlanner(num_shards=0)


class TestGasAwareShardPlanner:
    def test_unobserved_feeds_use_bootstrap_estimate(self):
        assert (EWMA_ALPHA, BOOTSTRAP_GAS) == (0.25, 250_000)
        assert GasAwareShardPlanner().estimate("new-feed") == 250_000.0

    def test_first_observation_replaces_bootstrap(self):
        planner = GasAwareShardPlanner()
        planner.observe("f", 1_000)
        assert planner.estimate("f") == 1_000.0

    def test_ewma_tracks_trailing_gas(self):
        planner = GasAwareShardPlanner()
        planner.observe("f", 1_000)
        planner.observe("f", 2_000)
        assert planner.estimate("f") == 0.25 * 2_000 + 0.75 * 1_000 == 1_250.0
        planner.observe("f", 2_000)
        assert planner.estimate("f") == 0.25 * 2_000 + 0.75 * 1_250 == 1_437.5

    def test_forget_resets_to_bootstrap(self):
        planner = GasAwareShardPlanner()
        planner.observe("f", 9_999)
        planner.forget("f")
        assert planner.estimate("f") == 250_000.0

    def test_packs_under_budget(self):
        planner = GasAwareShardPlanner(block_gas_fraction=0.5)
        for feed, gas in [("a", 3_000_000), ("b", 2_000_000), ("c", 2_000_000),
                          ("d", 1_000_000), ("e", 500_000)]:
            planner.observe(feed, gas)
        plan = planner.plan(["a", "b", "c", "d", "e"], block_gas_limit=LIMIT)
        budget = 0.5 * LIMIT
        for shard in plan:
            assert sum(planner.estimate(feed) for feed in shard) <= budget
        assert sorted(feed for shard in plan for feed in shard) == ["a", "b", "c", "d", "e"]

    def test_ffd_puts_heaviest_first(self):
        planner = GasAwareShardPlanner(block_gas_fraction=0.5)
        planner.observe("light", 1_000)
        planner.observe("heavy", 4_900_000)
        plan = planner.plan(["light", "heavy"], block_gas_limit=LIMIT)
        assert plan == [["heavy", "light"]]

    def test_oversized_feed_gets_own_shard(self):
        planner = GasAwareShardPlanner(block_gas_fraction=0.1)
        planner.observe("whale", 5_000_000)  # above the 1M budget
        planner.observe("minnow", 100_000)
        plan = planner.plan(["whale", "minnow"], block_gas_limit=LIMIT)
        assert ["whale"] in plan
        assert ["minnow"] in plan

    def test_a_feed_stays_in_its_previous_bin_while_it_fits(self):
        planner = GasAwareShardPlanner(block_gas_fraction=0.5)
        for feed, gas in [("a", 3_000_000), ("b", 2_500_000), ("c", 2_000_000),
                          ("d", 500_000)]:
            planner.observe(feed, gas)
        feeds = ["a", "b", "c", "d"]
        assert planner.plan(feeds, block_gas_limit=LIMIT) == [["a", "c"], ["b", "d"]]
        # c shrinks to 1.5M: first fit alone would now pull d into bin 0, but
        # d's bin 1 still fits, so it stays and its mirror does not move.
        planner.observe("c", 0)
        assert planner.plan(feeds, block_gas_limit=LIMIT) == [["a", "c"], ["b", "d"]]

    def test_plan_is_deterministic(self):
        def build():
            planner = GasAwareShardPlanner(block_gas_fraction=0.2)
            for index in range(12):
                planner.observe(f"feed-{index:02d}", 300_000 + 50_000 * (index % 5))
            return planner.plan(
                [f"feed-{index:02d}" for index in range(12)], block_gas_limit=LIMIT
            )

        assert build() == build()

    def test_empty_fleet_plans_nothing(self):
        assert GasAwareShardPlanner().plan([], block_gas_limit=LIMIT) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GasAwareShardPlanner(block_gas_fraction=0.0)
        with pytest.raises(ConfigurationError):
            GasAwareShardPlanner(block_gas_fraction=1.5)
