"""Deterministic-seed audit: identical runs must produce identical reports.

Every stochastic component threads an explicit ``seed``/``rng`` (the workload
generators, the adversarial SP's omit attack); nothing in the stack consults
module-level randomness or wall-clock state for decisions.  These tests pin
that property end to end: running the same seeded configuration twice yields
bit-identical ``RunReport``s / fleet telemetry.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem, RunReport
from repro.core.service_provider import TamperingServiceProvider
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.workloads.synthetic import AlternatingPhaseWorkload, SyntheticWorkload
from repro.workloads.ycsb import MixedYCSBWorkload


def report_fingerprint(system: GrubSystem, report: RunReport) -> dict:
    """Every field of a report (epoch summaries included) and the gas the
    run's chain charged by category, as plain data."""
    return {**asdict(report), "gas_by_category": dict(system.chain.ledger.by_category)}


class TestWorkloadDeterminism:
    def test_synthetic_workload_is_seed_deterministic(self):
        first = SyntheticWorkload(read_write_ratio=4, num_operations=64, seed=3).operations()
        second = SyntheticWorkload(read_write_ratio=4, num_operations=64, seed=3).operations()
        assert first == second
        different = SyntheticWorkload(read_write_ratio=4, num_operations=64, seed=4).operations()
        assert first != different

    def test_ycsb_workload_is_seed_deterministic(self):
        first = MixedYCSBWorkload(record_count=64, operations_per_phase=32, seed=9)
        second = MixedYCSBWorkload(record_count=64, operations_per_phase=32, seed=9)
        assert first.operations() == second.operations()
        assert [r.key for r in first.preload_records()] == [
            r.key for r in second.preload_records()
        ]


class TestSystemRunDeterminism:
    def test_identical_grub_runs_produce_identical_reports(self):
        config = GrubConfig(epoch_size=16, algorithm="memoryless")
        workload = MixedYCSBWorkload(
            record_count=128, operations_per_phase=64, record_size_bytes=64, seed=42
        )
        fingerprints = []
        for _ in range(2):
            system = GrubSystem(config, preload=workload.preload_records())
            fingerprints.append(report_fingerprint(system, system.run(workload.operations())))
        assert fingerprints[0] == fingerprints[1]

    def test_identical_phase_workload_runs_match(self):
        config = GrubConfig(epoch_size=8, algorithm="memorizing")
        operations = AlternatingPhaseWorkload(
            operations_per_phase=32, num_keys=2, seed=5
        ).operations()
        first, second = GrubSystem(config), GrubSystem(config)
        assert report_fingerprint(first, first.run(operations)) == report_fingerprint(
            second, second.run(operations)
        )


class TestGatewayDeterminism:
    def test_identical_fleet_runs_produce_identical_telemetry(self):
        def run_fleet():
            registry = FeedRegistry()
            for index in range(4):
                registry.create_feed(
                    FeedSpec(feed_id=f"feed-{index}", config=GrubConfig(epoch_size=8))
                )
            workloads = {
                f"feed-{index}": SyntheticWorkload(
                    read_write_ratio=2.0,
                    num_operations=48,
                    num_keys=2,
                    seed=index + 10,
                ).operations()
                for index in range(4)
            }
            return EpochScheduler(registry, num_shards=2).run(workloads)

        first, second = run_fleet(), run_fleet()
        for feed_id in first.feeds:
            a, b = first.feed(feed_id), second.feed(feed_id)
            assert (a.gas_feed, a.gas_application) == (b.gas_feed, b.gas_application)
            assert (a.cache_hits, a.cache_misses) == (b.cache_hits, b.cache_misses)
            assert (a.replications, a.evictions) == (b.replications, b.evictions)
            assert [asdict(e) for e in a.epochs] == [asdict(e) for e in b.epochs]
        assert first.deliver_batches == second.deliver_batches
        assert first.update_batches == second.update_batches


def make_adversary(**overrides) -> TamperingServiceProvider:
    """A tampering SP with the collaborators the rng tests don't exercise stubbed."""
    from repro.ads.authenticated_kv import AuthenticatedKVStore

    defaults = dict(
        address="sp", chain=None, storage_manager=None, store=AuthenticatedKVStore()
    )
    defaults.update(overrides)
    return TamperingServiceProvider(**defaults)


class TestAdversarySeedThreading:
    def test_omit_attack_is_reproducible_for_equal_seeds(self):
        def omit_pattern(seed: int) -> list:
            provider = make_adversary(attack="omit", omit_probability=0.5, seed=seed)
            return [provider.rng.random() < provider.omit_probability for _ in range(32)]

        assert omit_pattern(7) == omit_pattern(7)
        assert omit_pattern(7) != omit_pattern(8)

    def test_explicit_rng_still_injectable(self):
        import random

        provider = make_adversary(attack="omit", rng=random.Random(99))
        assert provider.rng.getstate() == random.Random(99).getstate()
