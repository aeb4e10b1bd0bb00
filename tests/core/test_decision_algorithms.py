"""Unit and property tests for the online replication decision algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.gas import GasSchedule
from repro.common.errors import ConfigurationError
from repro.common.types import Operation, ReplicationState
from repro.core.decision.adaptive import AdaptiveKAlgorithm
from repro.core.decision.base import CostModel, make_algorithm
from repro.core.decision.memorizing import MemorizingAlgorithm
from repro.core.decision.memoryless import MemorylessAlgorithm
from repro.core.decision.offline import OfflineOptimalAlgorithm
from repro.core.decision.static import StaticAlgorithm

R = ReplicationState.REPLICATED
NR = ReplicationState.NOT_REPLICATED
COST_MODEL = CostModel.from_schedule(GasSchedule())


def writes_then_reads(key: str, writes: int, reads: int) -> list:
    ops = [Operation.write(key, b"v") for _ in range(writes)]
    ops.extend(Operation.read(key) for _ in range(reads))
    return ops


class TestMemoryless:
    def test_replicates_after_k_consecutive_reads(self):
        algo = MemorylessAlgorithm(k=3)
        algo.observe(writes_then_reads("a", 1, 2))
        assert algo.state_of("a") is NR
        algo.observe([Operation.read("a")])
        assert algo.state_of("a") is R

    def test_write_resets_counter_and_state(self):
        algo = MemorylessAlgorithm(k=2)
        algo.observe(writes_then_reads("a", 1, 2))
        assert algo.state_of("a") is R
        algo.observe([Operation.write("a", b"v")])
        assert algo.state_of("a") is NR
        assert algo.read_count("a") == 0

    def test_keys_are_independent(self):
        algo = MemorylessAlgorithm(k=1)
        algo.observe([Operation.read("a"), Operation.write("b", b"v")])
        assert algo.state_of("a") is R
        assert algo.state_of("b") is NR

    def test_changed_decisions_only_reported_on_change(self):
        algo = MemorylessAlgorithm(k=1)
        first = algo.observe([Operation.read("a")])
        second = algo.observe([Operation.read("a")])
        assert [d.key for d in first] == ["a"]
        assert second == []

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            MemorylessAlgorithm(k=0)

    def test_competitiveness_bound_with_equation_one(self):
        k = COST_MODEL.equation_one_k
        algo = MemorylessAlgorithm(k=k)
        bound = algo.worst_case_competitiveness(
            COST_MODEL.update_cost, COST_MODEL.off_chain_read_cost
        )
        # Equation 1 makes the algorithm (about) 2-competitive.
        assert bound == pytest.approx(1 + k * COST_MODEL.off_chain_read_cost / COST_MODEL.update_cost)
        assert bound <= 2.05

    def test_equation_one_stays_two_competitive_at_the_measured_read_price(self):
        # A read off chain that costs a share of the schedule's price moves K
        # by the inverse share, so the bound of Theorem A.1 stays where it was
        # (up to K's rounding) instead of growing with the discount.
        assert COST_MODEL.equation_one_k_at(1.0) == COST_MODEL.equation_one_k == 2
        assert [COST_MODEL.equation_one_k_at(share) for share in (0.59, 0.394, 0.1)] == [4, 6, 23]
        for share in (1.0, 0.59, 0.394, 0.1):
            algo = MemorylessAlgorithm(k=COST_MODEL.equation_one_k_at(share))
            bound = algo.worst_case_competitiveness(
                COST_MODEL.update_cost, COST_MODEL.off_chain_read_cost * share
            )
            assert bound <= 2.25

    def test_reset_clears_state(self):
        algo = MemorylessAlgorithm(k=1)
        algo.observe([Operation.read("a")])
        algo.reset()
        assert algo.state_of("a") is NR
        assert algo.read_count("a") == 0


class TestMemorizing:
    def test_replicates_once_reads_outpace_writes(self):
        algo = MemorizingAlgorithm(k_prime=2, window_d=1)
        algo.observe(writes_then_reads("a", 1, 3))
        assert algo.state_of("a") is R

    def test_stays_replicated_across_occasional_writes(self):
        """Temporal locality: one write does not evict a read-heavy record."""
        algo = MemorizingAlgorithm(k_prime=2, window_d=1)
        algo.observe(writes_then_reads("a", 1, 6))
        assert algo.state_of("a") is R
        algo.observe([Operation.write("a", b"v")])
        assert algo.state_of("a") is R

    def test_unreplicates_after_sustained_writes(self):
        algo = MemorizingAlgorithm(k_prime=2, window_d=1)
        algo.observe(writes_then_reads("a", 1, 3))
        assert algo.state_of("a") is R
        algo.observe([Operation.write("a", b"v") for _ in range(4)])
        assert algo.state_of("a") is NR

    def test_counters_visible_for_inspection(self):
        algo = MemorizingAlgorithm(k_prime=2, window_d=1)
        algo.observe(writes_then_reads("a", 2, 1))
        counters = algo.counters("a")
        assert counters["writes"] == 2 and counters["reads"] == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            MemorizingAlgorithm(k_prime=0)
        with pytest.raises(ConfigurationError):
            MemorizingAlgorithm(k_prime=2, window_d=-1)

    def test_competitiveness_formula(self):
        algo = MemorizingAlgorithm(k_prime=8, window_d=1)
        assert algo.worst_case_competitiveness() == pytest.approx((4 * 1 + 2) / 8)


class TestAdaptiveK:
    def test_k1_replicates_when_history_predicts_reads(self):
        algo = AdaptiveKAlgorithm(base_k=2, history=3, repeat_history=True)
        # Three intervals with 4 reads each build up a high prediction.
        for _ in range(3):
            algo.observe(writes_then_reads("a", 1, 4))
        algo.observe([Operation.write("a", b"v")])
        assert algo.state_of("a") is R

    def test_k2_is_dual_of_k1(self):
        trace = []
        for _ in range(3):
            trace.extend(writes_then_reads("a", 1, 4))
        trace.append(Operation.write("a", b"v"))
        k1 = AdaptiveKAlgorithm(base_k=2, repeat_history=True)
        k2 = AdaptiveKAlgorithm(base_k=2, repeat_history=False)
        k1.observe(list(trace))
        k2.observe(list(trace))
        assert k1.state_of("a") != k2.state_of("a")

    def test_consecutive_read_safety_net(self):
        algo = AdaptiveKAlgorithm(base_k=2, repeat_history=True)
        algo.observe([Operation.read("a"), Operation.read("a")])
        assert algo.state_of("a") is R

    def test_prediction_window_limits_history(self):
        algo = AdaptiveKAlgorithm(base_k=2, history=2, repeat_history=True)
        algo.observe(writes_then_reads("a", 1, 10))
        algo.observe(writes_then_reads("a", 1, 0))
        algo.observe(writes_then_reads("a", 1, 0))
        algo.observe([Operation.write("a", b"v")])
        assert algo.predicted_reads_per_write("a") == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            AdaptiveKAlgorithm(base_k=0)
        with pytest.raises(ConfigurationError):
            AdaptiveKAlgorithm(base_k=2, history=0)


class TestOfflineOptimal:
    def test_replicates_only_profitable_intervals(self):
        # Interval 1 has 1 read (not worth replicating at K=2); interval 2 has 5.
        trace = writes_then_reads("a", 1, 1) + writes_then_reads("a", 1, 5)
        algo = OfflineOptimalAlgorithm(COST_MODEL, trace)
        algo.observe([trace[0]])
        assert algo.state_of("a") is NR
        algo.observe(trace[1:3])  # the read + second write
        assert algo.state_of("a") is R

    def test_write_only_trace_never_replicates(self):
        trace = [Operation.write("a", b"v") for _ in range(5)]
        algo = OfflineOptimalAlgorithm(COST_MODEL, trace)
        algo.observe(trace)
        assert algo.state_of("a") is NR

    def test_read_heavy_trace_replicates_immediately(self):
        trace = writes_then_reads("a", 1, 50)
        algo = OfflineOptimalAlgorithm(COST_MODEL, trace)
        algo.observe([trace[0]])
        assert algo.state_of("a") is R


class TestStaticAndFactory:
    def test_static_always(self):
        algo = StaticAlgorithm(R)
        algo.observe([Operation.write("a", b"v")])
        assert algo.state_of("a") is R
        assert algo.state_of("never-seen") is R

    def test_static_never(self):
        algo = StaticAlgorithm(NR)
        algo.observe(writes_then_reads("a", 1, 100))
        assert algo.state_of("a") is NR

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("memoryless", MemorylessAlgorithm),
            ("memorizing", MemorizingAlgorithm),
            ("adaptive-k1", AdaptiveKAlgorithm),
            ("adaptive-k2", AdaptiveKAlgorithm),
            ("offline", OfflineOptimalAlgorithm),
            ("always", StaticAlgorithm),
            ("never", StaticAlgorithm),
        ],
    )
    def test_factory_builds_each_algorithm(self, name, expected):
        assert isinstance(make_algorithm(name, COST_MODEL), expected)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_algorithm("quantum", COST_MODEL)

    def test_factory_derives_k_from_equation_one(self):
        algo = make_algorithm("memoryless", COST_MODEL)
        assert algo.k == COST_MODEL.equation_one_k


# -- property tests ---------------------------------------------------------

operations_strategy = st.lists(
    st.tuples(st.sampled_from(["r", "w"]), st.sampled_from(["a", "b", "c"])),
    max_size=80,
).map(
    lambda pairs: [
        Operation.read(key) if kind == "r" else Operation.write(key, b"v")
        for kind, key in pairs
    ]
)


@settings(max_examples=50, deadline=None)
@given(operations_strategy, st.integers(min_value=1, max_value=5))
def test_memoryless_invariant_replicated_implies_k_recent_reads(trace, k):
    """Property: a key is R iff its last k operations (since the last write) are reads."""
    algo = MemorylessAlgorithm(k=k)
    algo.observe(trace)
    since_last_write: dict = {}
    for op in trace:
        if op.is_write:
            since_last_write[op.key] = 0
        else:
            since_last_write[op.key] = since_last_write.get(op.key, 0) + 1
    for key, count in since_last_write.items():
        expected = R if count >= k else NR
        assert algo.state_of(key) is expected


@settings(max_examples=50, deadline=None)
@given(operations_strategy)
def test_incremental_observation_equals_batch_observation(trace):
    """Property: feeding operations one at a time gives the same final decisions."""
    for factory in (
        lambda: MemorylessAlgorithm(k=2),
        lambda: MemorizingAlgorithm(k_prime=2, window_d=1),
        lambda: AdaptiveKAlgorithm(base_k=2),
    ):
        batch, incremental = factory(), factory()
        batch.observe(list(trace))
        for op in trace:
            incremental.observe([op])
        assert batch.states() == incremental.states()
