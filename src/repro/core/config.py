"""Configuration of a GRuB (or baseline) deployment.

The config gathers every knob the paper's evaluation varies: the decision
algorithm and its parameters (K, K', D, adaptive policies), the epoch size,
record sizing, delivery batching and the chain parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.chain.chain import ChainParameters
from repro.chain.gas import GasSchedule
from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class GrubConfig:
    """Configuration for a GRuB system instance.

    Attributes:
        epoch_size: number of workload operations per epoch; the DO batches
            the epoch's writes into a single ``update`` transaction ("each
            epoch of 32 txs" in the paper's figures).
        algorithm: which decision algorithm the control plane runs; one of
            ``"memoryless"``, ``"memorizing"``, ``"adaptive-k1"``,
            ``"adaptive-k2"``, ``"offline"``, ``"always"``, ``"never"``.
            Under all but the last two, a deliver carries the DO's current
            decision (Listing 2's ``replicate`` flag), so an NR→R transition
            lands on the read path, not at the next epoch update.
        k: the memoryless threshold K (consecutive reads before replicating).
            ``None`` derives it from the gas schedule via Equation 1.
        k_prime: the memorizing algorithm's K'; ``None`` derives it like K.
            With neither configured, the control plane re-derives the
            threshold every epoch with ``C_read_off`` at what the feed's
            delivered reads have measurably cost (records of one ``deliver``
            share a multiproof); configuring either pins it.
        window_d: the memorizing algorithm's hysteresis window D.
        adaptive_history: number of past writes the adaptive-K heuristics
            average over (the paper uses 3).
        batch_deliver: whether the SP batches all pending deliver responses of
            an epoch into one transaction (the paper's epoch-batched
            accounting) or sends one transaction per request.
        continuous_decisions: run the decision algorithm on every operation as
            soon as the DO observes it (writes locally, reads via the chain's
            call history) instead of once per epoch; decisions can then be
            actuated by the very next deliver.
        evict_unused_after_epochs: evict a replicated record that has not been
            read for this many epochs (the BtcRelay experiment's "reusable
            storage"); ``None`` disables time-based eviction.
        record_size_bytes: default record payload size used when a workload
            operation does not carry an explicit value.
        gas_schedule / chain_parameters: substrate configuration.
    """

    epoch_size: int = 32
    algorithm: str = "memoryless"
    k: Optional[int] = None
    k_prime: Optional[int] = None
    window_d: int = 1
    adaptive_history: int = 3
    batch_deliver: bool = True
    continuous_decisions: bool = False
    reuse_replica_slots: bool = False
    evict_unused_after_epochs: Optional[int] = None
    record_size_bytes: int = 32
    gas_schedule: GasSchedule = field(default_factory=GasSchedule)
    chain_parameters: ChainParameters = field(default_factory=ChainParameters)

    VALID_ALGORITHMS = (
        "memoryless",
        "memorizing",
        "adaptive-k1",
        "adaptive-k2",
        "offline",
        "always",
        "never",
    )

    def __post_init__(self) -> None:
        if self.epoch_size <= 0:
            raise ConfigurationError("epoch_size must be positive")
        if self.algorithm not in self.VALID_ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {self.VALID_ALGORITHMS}"
            )
        if self.k is not None and self.k <= 0:
            raise ConfigurationError("k must be positive when given")
        if self.k_prime is not None and self.k_prime <= 0:
            raise ConfigurationError("k_prime must be positive when given")
        if self.window_d < 0:
            raise ConfigurationError("window_d must be non-negative")
        if self.record_size_bytes <= 0:
            raise ConfigurationError("record_size_bytes must be positive")

    @property
    def effective_k(self) -> int:
        """K from Equation 1 when not set explicitly: ``C_update / C_read_off``."""
        if self.k is not None:
            return self.k
        return self.gas_schedule.replication_threshold_k

    @property
    def effective_k_prime(self) -> int:
        if self.k_prime is not None:
            return self.k_prime
        return self.gas_schedule.replication_threshold_k

    def with_algorithm(self, algorithm: str, **overrides) -> "GrubConfig":
        """Copy of the config running a different algorithm (and overrides)."""
        return replace(self, algorithm=algorithm, **overrides)

    def with_overrides(self, **overrides) -> "GrubConfig":
        return replace(self, **overrides)
