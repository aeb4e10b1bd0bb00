"""YCSB core workloads re-implemented for the GRuB macro-benchmarks.

The paper evaluates GRuB under mixes of the Yahoo! Cloud Serving Benchmark
core workloads (Cooper et al., SoCC 2010):

* **Workload A** — 50% reads / 50% updates, zipfian request distribution,
* **Workload B** — 95% reads / 5% updates, zipfian,
* **Workload E** — 95% scans / 5% inserts, zipfian start keys with uniform
  scan lengths,
* **Workload F** — 50% reads / 50% read-modify-writes, zipfian.

Each experiment preloads a record population, then runs four phases of
operations where each phase is produced by one of the mixed workloads
(e.g. A,B,A,B), reproducing the phase-shifting behaviour of Figures 9 and 13.

The zipfian generator follows the standard YCSB algorithm (Gray et al.'s
rejection-free zipfian with the scrambling step), so the popularity skew that
drives GRuB's replication decisions matches what the real benchmark would
produce.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.types import KVRecord, Operation, ReplicationState


class ZipfianGenerator:
    """Zipfian-distributed integers in ``[0, item_count)`` (YCSB's algorithm)."""

    ZIPFIAN_CONSTANT = 0.99

    def __init__(self, item_count: int, rng: random.Random, constant: float = ZIPFIAN_CONSTANT) -> None:
        if item_count <= 0:
            raise ConfigurationError("zipfian item count must be positive")
        self.item_count = item_count
        self.rng = rng
        self.theta = constant
        self.alpha = 1.0 / (1.0 - self.theta)
        self.zetan = self._zeta(item_count)
        self.zeta2theta = self._zeta(2)
        self.eta = (1 - (2.0 / item_count) ** (1 - self.theta)) / (
            1 - self.zeta2theta / self.zetan
        )

    def _zeta(self, n: int) -> float:
        return sum(1.0 / (i ** self.theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count * (self.eta * u - self.eta + 1) ** self.alpha)

    def next_scrambled(self) -> int:
        """YCSB's scrambled zipfian: spread the hot items across the key space."""
        raw = self.next()
        return _fnv_hash(raw) % self.item_count


def _fnv_hash(value: int) -> int:
    """64-bit FNV-1a over the integer's bytes (YCSB's scrambling hash)."""
    data = value.to_bytes(8, "big")
    hash_value = 0xCBF29CE484222325
    for byte in data:
        hash_value ^= byte
        hash_value = (hash_value * 0x100000001B3) % (1 << 64)
    return hash_value


class LatestGenerator:
    """YCSB's "latest" distribution: recent inserts are the most popular."""

    def __init__(self, item_count: int, rng: random.Random) -> None:
        self.item_count = item_count
        self.zipfian = ZipfianGenerator(item_count, rng)

    def next(self) -> int:
        offset = self.zipfian.next()
        return max(0, self.item_count - 1 - offset)


@dataclass(frozen=True)
class YCSBConfig:
    """Operation mix of one YCSB core workload."""

    name: str
    read_proportion: float = 0.0
    update_proportion: float = 0.0
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    read_modify_write_proportion: float = 0.0
    request_distribution: str = "zipfian"
    max_scan_length: int = 100

    def __post_init__(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.scan_proportion
            + self.read_modify_write_proportion
        )
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ConfigurationError(
                f"workload {self.name}: operation proportions must sum to 1, got {total}"
            )


#: The standard YCSB core workload definitions used by the paper.
WORKLOAD_PRESETS: Dict[str, YCSBConfig] = {
    "A": YCSBConfig(name="A", read_proportion=0.5, update_proportion=0.5),
    "B": YCSBConfig(name="B", read_proportion=0.95, update_proportion=0.05),
    "C": YCSBConfig(name="C", read_proportion=1.0),
    "D": YCSBConfig(
        name="D",
        read_proportion=0.95,
        insert_proportion=0.05,
        request_distribution="latest",
    ),
    "E": YCSBConfig(
        name="E",
        scan_proportion=0.95,
        insert_proportion=0.05,
        max_scan_length=16,
    ),
    "F": YCSBConfig(name="F", read_proportion=0.5, read_modify_write_proportion=0.5),
}


@dataclass
class YCSBWorkload:
    """One YCSB workload phase over a shared record population."""

    config: YCSBConfig
    record_count: int = 1024
    record_size_bytes: int = 1024
    operation_count: int = 4096
    seed: int = 42
    key_prefix: str = "user"
    _insert_cursor: int = field(default=0, init=False)

    def key_for(self, index: int) -> str:
        return f"{self.key_prefix}{index:012d}"

    def preload_records(self) -> List[KVRecord]:
        """The initial record population loaded before the measured run."""
        rng = random.Random(self.seed)
        records = []
        for index in range(self.record_count):
            records.append(
                KVRecord.make(
                    self.key_for(index),
                    self._payload(rng),
                    ReplicationState.NOT_REPLICATED,
                )
            )
        return records

    def operations(self, starting_population: Optional[int] = None) -> List[Operation]:
        """Generate one phase of operations against the current population."""
        rng = random.Random(self.seed + 1)
        population = starting_population or self.record_count
        self._insert_cursor = population
        if self.config.request_distribution == "latest":
            chooser: object = LatestGenerator(population, rng)
        elif self.config.request_distribution == "uniform":
            chooser = None
        else:
            chooser = ZipfianGenerator(population, rng)

        ops: List[Operation] = []
        for _ in range(self.operation_count):
            op_type = self._choose_operation(rng)
            if op_type == "insert":
                key = self.key_for(self._insert_cursor)
                self._insert_cursor += 1
                ops.append(Operation.write(key, self._payload(rng), sequence=len(ops)))
                continue
            index = self._choose_key_index(chooser, rng, population)
            key = self.key_for(index)
            if op_type == "read":
                ops.append(
                    Operation.read(key, size_bytes=self.record_size_bytes, sequence=len(ops))
                )
            elif op_type == "update":
                ops.append(Operation.write(key, self._payload(rng), sequence=len(ops)))
            elif op_type == "scan":
                length = rng.randint(1, self.config.max_scan_length)
                ops.append(
                    Operation.scan(
                        key, length, size_bytes=self.record_size_bytes, sequence=len(ops)
                    )
                )
            elif op_type == "read_modify_write":
                ops.append(
                    Operation.read(key, size_bytes=self.record_size_bytes, sequence=len(ops))
                )
                ops.append(Operation.write(key, self._payload(rng), sequence=len(ops)))
        return ops

    # -- internals ------------------------------------------------------------

    def _choose_operation(self, rng: random.Random) -> str:
        roll = rng.random()
        config = self.config
        thresholds = [
            ("read", config.read_proportion),
            ("update", config.update_proportion),
            ("insert", config.insert_proportion),
            ("scan", config.scan_proportion),
            ("read_modify_write", config.read_modify_write_proportion),
        ]
        cumulative = 0.0
        for name, proportion in thresholds:
            cumulative += proportion
            if roll < cumulative:
                return name
        return thresholds[-1][0]

    def _choose_key_index(self, chooser, rng: random.Random, population: int) -> int:
        if chooser is None:
            return rng.randrange(population)
        if isinstance(chooser, ZipfianGenerator):
            return chooser.next_scrambled()
        return chooser.next()

    def _payload(self, rng: random.Random) -> bytes:
        return bytes(rng.randrange(256) for _ in range(self.record_size_bytes))


@dataclass
class MixedYCSBWorkload:
    """The paper's phase mixer: alternate two YCSB workloads over four phases.

    ``phases`` names the workload run in each phase (the paper uses
    ``A,B,A,B``, ``A,E,A,E`` and ``A,F,A,F``); all phases share the same
    preloaded record population so replication decisions made in one phase
    carry into the next — which is exactly the effect Figure 9's Phase P4
    highlights (records replicated in P2 make P4 cheap).
    """

    phases: Sequence[str] = ("A", "B", "A", "B")
    record_count: int = 1024
    record_size_bytes: int = 1024
    operations_per_phase: int = 1024
    seed: int = 42

    def preload_records(self) -> List[KVRecord]:
        base = YCSBWorkload(
            config=WORKLOAD_PRESETS[self.phases[0]],
            record_count=self.record_count,
            record_size_bytes=self.record_size_bytes,
            operation_count=self.operations_per_phase,
            seed=self.seed,
        )
        return base.preload_records()

    def operations(self) -> List[Operation]:
        ops: List[Operation] = []
        population = self.record_count
        for phase_index, phase_name in enumerate(self.phases):
            workload = YCSBWorkload(
                config=WORKLOAD_PRESETS[phase_name],
                record_count=self.record_count,
                record_size_bytes=self.record_size_bytes,
                operation_count=self.operations_per_phase,
                seed=self.seed + phase_index * 101,
            )
            phase_ops = workload.operations(starting_population=population)
            population = max(population, workload._insert_cursor)
            for op in phase_ops:
                ops.append(
                    Operation(
                        kind=op.kind,
                        key=op.key,
                        value=op.value,
                        size_bytes=op.size_bytes,
                        scan_length=op.scan_length,
                        sequence=len(ops),
                    )
                )
        return ops

    def phase_markers(self) -> Dict[int, str]:
        """Operation index → phase label, for annotating per-epoch series."""
        markers: Dict[int, str] = {}
        cursor = 0
        for index, phase_name in enumerate(self.phases):
            markers[cursor] = f"P{index + 1}:{phase_name}"
            cursor += self.operations_per_phase
        return markers
