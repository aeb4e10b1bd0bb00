"""The observability plane against the real engine: zero-entropy, complete.

The tentpole invariant: fingerprints, per-feed gas bills and chain state are
bit-identical across serial/process with tracing on or off — the
plane observes the run, it never steers it.  And a traced run must actually
be worth exporting: a complete span tree (every epoch, phase and shard
present) with non-empty p50/p95/p99 for every instrumented phase.
"""

from __future__ import annotations

import pytest

from repro.obs import PHASE_ORDER, Observability

from export_checks import parse_prometheus, validate_jsonl
from test_parallel_engine import build_mixed_fleet, chain_state_fingerprint

from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.core.config import GrubConfig
from repro.common.types import KVRecord
from repro.workloads.synthetic import SyntheticWorkload

SERIAL_PHASES = ("drive", "deliver", "update", "settle")


def run_fleet(mode: str, workers: int, obs: Observability | None):
    registry, workloads = build_mixed_fleet()
    scheduler = EpochScheduler(
        registry,
        num_shards=4,
        num_workers=workers,
        execution_mode=mode,
        obs=obs,
    )
    fleet = scheduler.run(workloads)
    gas_bills = {
        feed_id: (t.gas_feed, t.gas_application) for feed_id, t in fleet.feeds.items()
    }
    return fleet.fingerprint(), gas_bills, chain_state_fingerprint(registry)


class TestZeroEntropy:
    """Observability on/off changes nothing, in any execution mode."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_fleet("serial", 1, None)

    @pytest.mark.parametrize(
        "mode,workers",
        [("serial", 1), ("process", 3)],
        ids=["serial", "process"],
    )
    def test_traced_run_is_bit_identical_to_untraced_serial(
        self, baseline, mode, workers
    ):
        traced = run_fleet(mode, workers, Observability())
        assert traced == baseline

    @pytest.mark.parametrize("mode,workers", [("process", 3)], ids=["process"])
    def test_untraced_parallel_still_matches(self, baseline, mode, workers):
        assert run_fleet(mode, workers, None) == baseline


class TestSpanTreeCompleteness:
    @pytest.fixture(scope="class")
    def traced_serial(self):
        obs = Observability()
        run_fleet("serial", 1, obs)
        return obs

    @pytest.fixture(scope="class")
    def traced_process(self):
        obs = Observability()
        run_fleet("process", 3, obs)
        return obs

    def test_serial_tree_has_every_epoch_phase_and_shard(self, traced_serial):
        tracer = traced_serial.tracer
        (run,) = tracer.roots
        assert run.name == "run" and run.attrs["mode"] == "serial"
        epochs = run.children
        assert [span.attrs["epoch"] for span in epochs] == list(range(len(epochs)))
        assert len(epochs) == 8  # 64 ops per feed / epoch_size 8
        for epoch_span in epochs:
            phases = [span.attrs["phase"] for span in epoch_span.children]
            assert phases == list(SERIAL_PHASES)
            # Shard spans under every phase, in fixed shard order.
            for phase_span in epoch_span.children:
                shards = [span.attrs["shard"] for span in phase_span.children]
                assert shards == list(range(4))

    def test_process_tree_grafts_lane_spans_in_shard_order(self, traced_process):
        tracer = traced_process.tracer
        (run,) = tracer.roots
        assert run.attrs["mode"] == "process"
        for epoch_span in run.children:
            phases = [span.attrs["phase"] for span in epoch_span.children]
            # Lane phases in canonical order, then the main-side merge.
            assert phases == list(PHASE_ORDER)
            for phase_span in epoch_span.children:
                if phase_span.attrs["phase"] == "merge":
                    continue
                assert [span.attrs["shard"] for span in phase_span.children] == list(
                    range(4)
                )
                lanes = [span.attrs["lane"] for span in phase_span.children]
                assert lanes == [shard % 3 for shard in range(4)]
                assert all(span.duration >= 0.0 for span in phase_span.children)

    def test_serial_and_one_lane_trees_agree_on_phases_and_shard_spans(
        self, traced_serial
    ):
        """Both backends run one epoch body, so epoch by epoch their trees
        hold the same phases with the same number of shard spans — the lane
        run only adds its main-side ``merge`` phase."""

        def shard_spans_per_phase(obs):
            (run,) = obs.tracer.roots
            return [
                {
                    phase.attrs["phase"]: len(phase.find("shard"))
                    for phase in epoch.children
                    if phase.attrs["phase"] != "merge"
                }
                for epoch in run.children
            ]

        one_lane = Observability()
        run_fleet("process", 1, one_lane)
        expected = [dict.fromkeys(SERIAL_PHASES, 4)] * 8
        assert shard_spans_per_phase(traced_serial) == expected
        assert shard_spans_per_phase(one_lane) == expected

    def test_every_phase_has_nonempty_percentiles(self, traced_serial, traced_process):
        for obs, expected in (
            (traced_serial, set(SERIAL_PHASES)),
            (traced_process, set(PHASE_ORDER)),
        ):
            percentiles = obs.phase_percentiles()
            assert set(percentiles) == expected
            for phase, row in percentiles.items():
                assert row["count"] > 0, phase
                assert row["p50"] is not None and row["p50"] >= 0.0
                assert row["p95"] is not None and row["p99"] is not None
                assert row["p50"] <= row["p95"] <= row["p99"]

    def test_instrument_catalog_populated(self, traced_serial):
        snapshot = traced_serial.snapshot()
        assert snapshot["counters"]["chain_blocks_total"] > 0
        assert snapshot["counters"]["chain_transactions_total"] > 0
        assert snapshot["counters"]["chain_verify_total"] > 0
        assert snapshot["histograms"]["chain_mine_seconds"]["count"] > 0
        assert snapshot["histograms"]["chain_verify_seconds"]["count"] > 0
        # Pull-collected memo gauges: the run's bills, and the hosted memos.
        assert snapshot["gauges"]["cache_hits"] > 0
        assert snapshot["gauges"]["cache_entries"] > 0

    def test_jsonl_export_of_a_real_run_validates(self, traced_serial, traced_process):
        for mode, obs in (("serial", traced_serial), ("process", traced_process)):
            events = validate_jsonl(obs.export_jsonl(meta={"mode": mode}))
            assert {"meta", "span", "counter", "histogram"} <= {e["type"] for e in events}
            spans = [event for event in events if event["type"] == "span"]
            assert any(span["name"] == "run" for span in spans)
            assert any(span["name"] == "shard" for span in spans)
            # The Prometheus text of the same run parses and carries the same
            # counter values, label set for label set.
            samples = parse_prometheus(obs.export_prometheus())
            counters = [event for event in events if event["type"] == "counter"]
            assert counters
            for counter in counters:
                assert (counter["labels"], float(counter["value"])) in samples[
                    counter["name"]
                ], (mode, counter)


class TestDisabledOverhead:
    def test_disabled_scheduler_touches_no_instruments(self):
        registry, workloads = build_mixed_fleet()
        scheduler = EpochScheduler(
            registry, num_shards=4, num_workers=1, execution_mode="serial"
        )
        scheduler.run(workloads)
        assert scheduler.obs.enabled is False
        assert scheduler.obs.registry.instruments() == []
        assert scheduler.obs.tracer.roots == []
        assert registry.chain.obs is None


class TestGasAwarePlannerMetrics:
    def test_bin_decisions_recorded(self):
        from repro.gateway import GasAwareShardPlanner

        registry = FeedRegistry()
        workloads = {}
        for index in range(6):
            feed_id = f"feed-{index}"
            config = GrubConfig(epoch_size=8, algorithm="memoryless", k=2)
            preload = [KVRecord.make(f"p{index}-{j}", bytes(16)) for j in range(4)]
            registry.create_feed(
                FeedSpec(feed_id=feed_id, config=config, preload=preload)
            )
            workloads[feed_id] = SyntheticWorkload(
                read_write_ratio=3.0,
                num_operations=32,
                num_keys=4,
                key_prefix=f"p{index}-",
                seed=index + 1,
            ).operations()
        obs = Observability()
        scheduler = EpochScheduler(
            registry,
            num_workers=1,
            execution_mode="serial",
            planner=GasAwareShardPlanner(block_gas_fraction=0.05),
            obs=obs,
        )
        scheduler.run(workloads)
        snapshot = obs.snapshot()
        assert snapshot["counters"]["planner_plans_total"] > 0
        shards_hist = snapshot["histograms"]["planner_shards_per_plan"]
        assert shards_hist["count"] == snapshot["counters"]["planner_plans_total"]
        utilization = snapshot["histograms"]["planner_bin_utilization"]
        assert utilization["count"] > 0
        assert utilization["p50"] is not None
