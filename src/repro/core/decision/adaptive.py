"""Adaptive-K heuristics (the paper's Appendix C.3).

The static K of Equation 1 guarantees bounded competitiveness but ignores the
workload.  The adaptive heuristics re-estimate, on every write, the expected
number of reads that will follow it as the average reads-per-write over a
short window of recent writes (the paper uses the last three), and compare the
prediction against the Equation-1 threshold:

* **policy K1** ("the future repeats the past"): replicate the freshly
  written record when the predicted reads-per-write exceeds the threshold.
* **policy K2** (the dual: "the future does not repeat the past"): replicate
  when the prediction is *below* the threshold.

The paper finds K1 slightly worse and K2 noticeably better than static K on
the ethPriceOracle trace (Table 5), which is the behaviour the corresponding
benchmark reproduces.

Between writes, reads still accumulate a consecutive-read counter so the
heuristic retains the memoryless algorithm's safety net: a key whose reads
exceed the static threshold is replicated regardless of the prediction.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List

from repro.common.errors import ConfigurationError
from repro.common.types import Operation, ReplicationState
from repro.core.decision.base import Decision, DecisionAlgorithm


class AdaptiveKAlgorithm(DecisionAlgorithm):
    """Re-estimate K per write from recent reads-per-write history."""

    name = "adaptive-k"

    def __init__(self, base_k: int, history: int = 3, repeat_history: bool = True) -> None:
        super().__init__()
        if base_k <= 0:
            raise ConfigurationError("base K must be a positive integer")
        if history <= 0:
            raise ConfigurationError("history window must be positive")
        self.base_k = base_k
        self.history = history
        self.repeat_history = repeat_history
        self.name = "adaptive-k1" if repeat_history else "adaptive-k2"
        self._reads_since_write: Dict[str, int] = {}
        self._recent_reads_per_write: Dict[str, Deque[int]] = {}

    def observe(self, operations: Iterable[Operation]) -> List[Decision]:
        changed: List[Decision] = []
        for op in operations:
            key = op.key
            if op.is_write:
                history = self._recent_reads_per_write.setdefault(
                    key, deque(maxlen=self.history)
                )
                history.append(self._reads_since_write.get(key, 0))
                self._reads_since_write[key] = 0
                predicted_k = sum(history) / len(history)
                if self.repeat_history:
                    replicate = predicted_k > self.base_k
                else:
                    replicate = predicted_k <= self.base_k
                self._set_state(
                    key,
                    ReplicationState.REPLICATED
                    if replicate
                    else ReplicationState.NOT_REPLICATED,
                    changed,
                )
            else:
                count = self._reads_since_write.get(key, 0) + 1
                self._reads_since_write[key] = count
                if (
                    count >= self.base_k
                    and self.state_of(key) is ReplicationState.NOT_REPLICATED
                ):
                    self._set_state(key, ReplicationState.REPLICATED, changed)
        return changed

    def predicted_reads_per_write(self, key: str) -> float:
        """Current prediction for ``key`` (0 when no history yet)."""
        history = self._recent_reads_per_write.get(key)
        if not history:
            return 0.0
        return sum(history) / len(history)

    def set_threshold(self, k: int) -> None:
        self.base_k = k

    def reset(self) -> None:
        super().reset()
        self._reads_since_write.clear()
        self._recent_reads_per_write.clear()
