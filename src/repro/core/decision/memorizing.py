"""The memorizing online algorithm (the paper's Algorithm 2).

Unlike the memoryless algorithm, this one remembers the operation history
across runs: per data key it keeps a long-run read counter and a long-run
write counter, and flips the replication state with a hysteresis window D:

* flip NR → R once ``wCount * K' + D <= rCount`` (reads have outpaced writes
  by the window), and
* flip R → NR once ``wCount * K' - D >= rCount`` (writes have outpaced reads).

After a flip the counters are re-centred (reads trimmed to D on an NR→R flip,
writes trimmed to D/K' on an R→NR flip) so the algorithm stays responsive to
workload shifts instead of being dominated by ancient history.  Theorem A.2
bounds its competitiveness by (4D+2)/K'.

Because the flip conditions compare long-run counters, the algorithm exploits
temporal locality: once a key has proven read-heavy it stays replicated across
occasional writes, which the memoryless algorithm cannot do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.common.errors import ConfigurationError
from repro.common.types import Operation, ReplicationState
from repro.core.decision.base import Decision, DecisionAlgorithm


class MemorizingAlgorithm(DecisionAlgorithm):
    """Hysteresis-based replication decisions over long-run read/write counters."""

    name = "memorizing"

    def __init__(self, k_prime: int, window_d: int = 1) -> None:
        super().__init__()
        if k_prime <= 0:
            raise ConfigurationError("K' must be a positive integer")
        if window_d < 0:
            raise ConfigurationError("D must be non-negative")
        self.k_prime = k_prime
        self.window_d = window_d
        self._read_counts: Dict[str, int] = {}
        self._write_counts: Dict[str, int] = {}

    def observe(self, operations: Iterable[Operation]) -> List[Decision]:
        changed: List[Decision] = []
        for op in operations:
            key = op.key
            if op.is_write:
                self._write_counts[key] = self._write_counts.get(key, 0) + 1
            else:
                self._read_counts[key] = self._read_counts.get(key, 0) + 1
            reads = self._read_counts.get(key, 0)
            writes = self._write_counts.get(key, 0)
            current = self.state_of(key)
            if writes * self.k_prime + self.window_d <= reads:
                if current is not ReplicationState.REPLICATED:
                    self._set_state(key, ReplicationState.REPLICATED, changed)
                    # Re-centre the counters so the hysteresis window governs
                    # the *next* flip rather than being swamped by the reads
                    # accumulated before this one.
                    self._write_counts[key] = 0
                    self._read_counts[key] = self.window_d
            elif writes * self.k_prime - self.window_d >= reads:
                if current is ReplicationState.REPLICATED:
                    self._set_state(key, ReplicationState.NOT_REPLICATED, changed)
                    self._read_counts[key] = 0
                    self._write_counts[key] = self.window_d // self.k_prime
        return changed

    def counters(self, key: str) -> Dict[str, int]:
        """Current (reads, writes) counters for a key, for inspection."""
        return {
            "reads": self._read_counts.get(key, 0),
            "writes": self._write_counts.get(key, 0),
        }

    def set_threshold(self, k: int) -> None:
        self.k_prime = k

    def reset(self) -> None:
        super().reset()
        self._read_counts.clear()
        self._write_counts.clear()

    def worst_case_competitiveness(self) -> float:
        """The bound of Theorem A.2: ``(4D + 2) / K'``."""
        return (4 * self.window_d + 2) / self.k_prime
