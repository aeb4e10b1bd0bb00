"""The memoryless online algorithm (the paper's Algorithm 1).

Per data key the algorithm keeps one counter: the number of consecutive reads
observed since the most recent write.  A write resets the counter and forces
the key back to NR; once the counter reaches the threshold K the key flips to
R and stops being counted.  With K set by Equation 1
(``K = C_update / C_read_off``) the algorithm is 2-competitive in worst-case
gas (Theorem A.1).

The algorithm is "memoryless" in the sense that a single write erases
everything it learned about the key's read popularity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.common.errors import ConfigurationError
from repro.common.types import Operation, OperationKind, ReplicationState
from repro.core.decision.base import Decision, DecisionAlgorithm


class MemorylessAlgorithm(DecisionAlgorithm):
    """Replicate a key after K consecutive reads; un-replicate on any write."""

    name = "memoryless"

    def __init__(self, k: int) -> None:
        super().__init__()
        if k <= 0:
            raise ConfigurationError("K must be a positive integer")
        self.k = k
        self._counters: Dict[str, int] = {}

    def observe(self, operations: Iterable[Operation]) -> List[Decision]:
        changed: List[Decision] = []
        for op in operations:
            # `kind is WRITE` inlines the is_write property; this loop sees
            # every operation of every epoch's federated trace.
            if op.kind is OperationKind.WRITE:
                self._counters[op.key] = 0
                self._set_state(op.key, ReplicationState.NOT_REPLICATED, changed)
            else:
                count = self._counters.get(op.key, 0)
                if count < self.k:
                    count += 1
                    self._counters[op.key] = count
                if count >= self.k:
                    self._set_state(op.key, ReplicationState.REPLICATED, changed)
                else:
                    self._set_state(op.key, ReplicationState.NOT_REPLICATED, changed)
        return changed

    def read_count(self, key: str) -> int:
        """Consecutive reads recorded for ``key`` since its last write."""
        return self._counters.get(key, 0)

    def set_threshold(self, k: int) -> None:
        self.k = k

    def reset(self) -> None:
        super().reset()
        self._counters.clear()

    def worst_case_competitiveness(self, update_cost: int, off_chain_read_cost: int) -> float:
        """The bound of Theorem A.1: ``1 + K * C_read_off / C_update``."""
        return 1.0 + self.k * off_chain_read_cost / update_cost
