"""Shared interface and cost model for the replication decision algorithms."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.chain.gas import GasSchedule
from repro.common.errors import ConfigurationError
from repro.common.types import Operation, ReplicationState


@dataclass(frozen=True)
class Decision:
    """A per-key replication decision emitted by an algorithm run."""

    key: str
    state: ReplicationState

    @property
    def replicate(self) -> bool:
        return self.state is ReplicationState.REPLICATED


@dataclass(frozen=True)
class CostModel:
    """The per-word gas quantities the algorithms reason about.

    The paper's parameter configuration (Equation 1 and the memorizing
    algorithm's K') is defined in terms of two unit costs:

    * ``update_cost`` — gas to update a word of on-chain storage
      (``C_update``), and
    * ``off_chain_read_cost`` — gas to move one word from off chain onto the
      chain in calldata (``C_read_off``).

    ``insert_cost`` and ``on_chain_read_cost`` are carried for the offline
    optimal algorithm, which charges full placement costs per interval.
    """

    update_cost: int
    off_chain_read_cost: int
    insert_cost: int
    on_chain_read_cost: int

    @classmethod
    def from_schedule(cls, schedule: GasSchedule) -> "CostModel":
        return cls(
            update_cost=schedule.storage_update_per_word,
            off_chain_read_cost=schedule.transaction_word,
            insert_cost=schedule.storage_insert_per_word,
            on_chain_read_cost=schedule.storage_read_per_word,
        )

    @property
    def equation_one_k(self) -> int:
        """The paper's Equation 1: ``K = C_update / C_read_off`` (≥ 1)."""
        return self.equation_one_k_at(1.0)

    def equation_one_k_at(self, read_discount: float) -> int:
        """Equation 1 with ``C_read_off`` at ``read_discount`` of its schedule
        price.  The paper's read off chain ships a root path with every
        record; a ``deliver`` whose records share one multiproof moves fewer
        words per record, a read off chain is that much cheaper to keep
        renting, and the break-even count of reads rises by as much."""
        return max(1, round(self.update_cost / (self.off_chain_read_cost * read_discount)))


class DecisionAlgorithm(ABC):
    """Interface every replication decision algorithm implements.

    ``observe`` consumes a batch of operations (one control-plane run, i.e.
    one epoch's federated trace) and returns the decisions for every key whose
    state changed.  ``state_of`` reports the current decision for a key so the
    data plane can consult it when new keys appear mid-epoch.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._states: Dict[str, ReplicationState] = {}

    @abstractmethod
    def observe(self, operations: Iterable[Operation]) -> List[Decision]:
        """Consume one batch of operations, returning the changed decisions."""

    def state_of(self, key: str) -> ReplicationState:
        """Current replication decision for ``key`` (NR when never seen)."""
        return self._states.get(key, ReplicationState.NOT_REPLICATED)

    def states(self) -> Dict[str, ReplicationState]:
        """Copy of the full decision map (for inspection and tests)."""
        return dict(self._states)

    def reset(self) -> None:
        """Forget all decisions and internal counters."""
        self._states.clear()

    def set_threshold(self, k: int) -> None:
        """Move the read-count threshold the algorithm decides by (K, K' or
        the adaptive base K); the static and offline algorithms have none."""

    # -- helpers shared by implementations ----------------------------------

    def _set_state(
        self, key: str, state: ReplicationState, changed: List[Decision]
    ) -> None:
        previous = self._states.get(key, ReplicationState.NOT_REPLICATED)
        self._states[key] = state
        if previous is not state:
            changed.append(Decision(key=key, state=state))


def make_algorithm(
    name: str,
    cost_model: CostModel,
    *,
    k: Optional[int] = None,
    k_prime: Optional[int] = None,
    window_d: int = 1,
    adaptive_history: int = 3,
    future_trace: Optional[List[Operation]] = None,
) -> DecisionAlgorithm:
    """Factory used by :class:`~repro.core.config.GrubConfig` consumers.

    ``future_trace`` is only meaningful for the offline optimal algorithm,
    which is clairvoyant by definition.
    """
    from repro.core.decision.adaptive import AdaptiveKAlgorithm
    from repro.core.decision.memorizing import MemorizingAlgorithm
    from repro.core.decision.memoryless import MemorylessAlgorithm
    from repro.core.decision.offline import OfflineOptimalAlgorithm
    from repro.core.decision.static import StaticAlgorithm

    if name == "memoryless":
        return MemorylessAlgorithm(k=k if k is not None else cost_model.equation_one_k)
    if name == "memorizing":
        return MemorizingAlgorithm(
            k_prime=k_prime if k_prime is not None else cost_model.equation_one_k,
            window_d=window_d,
        )
    if name == "adaptive-k1":
        return AdaptiveKAlgorithm(
            base_k=k if k is not None else cost_model.equation_one_k,
            history=adaptive_history,
            repeat_history=True,
        )
    if name == "adaptive-k2":
        return AdaptiveKAlgorithm(
            base_k=k if k is not None else cost_model.equation_one_k,
            history=adaptive_history,
            repeat_history=False,
        )
    if name == "offline":
        return OfflineOptimalAlgorithm(cost_model=cost_model, trace=future_trace or [])
    if name == "always":
        return StaticAlgorithm(ReplicationState.REPLICATED)
    if name == "never":
        return StaticAlgorithm(ReplicationState.NOT_REPLICATED)
    raise ConfigurationError(f"unknown decision algorithm {name!r}")
