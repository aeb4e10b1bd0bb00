"""Workload generators for the GRuB evaluation.

Every generator produces a list of :class:`~repro.common.types.Operation`
objects that the system facades consume:

* :class:`SyntheticWorkload` — repeated read/write sequences at a fixed
  read-to-write ratio (the microbenchmarks of Figures 3, 7, 8 and 11),
* :class:`EthPriceOracleTrace` — a seeded synthetic reproduction of the 5-day
  ethPriceOracle call trace, matching the reads-per-write distribution of
  Table 1 (Figures 2, 5, 15; Tables 3, 5),
* :class:`BtcRelayTrace` — a seeded synthetic reproduction of the BtcRelay
  block-read workload, matching Table 6 and the two-phase structure of
  Figure 6,
* :mod:`repro.workloads.ycsb` — YCSB core workloads A/B/E/F plus the phase
  mixer used by Figures 9, 13 and 14 and Table 4.

Multi-tenant gateway schedules — residents, joiners, NFT-mint bursts and
departures — are the repo benchmark's (``churn_inputs`` in
``benchmarks/suite/workloads.py``), which the gateway's property harness
drives too: one churn generator, outside the library.
"""

from repro.workloads.operations import WorkloadStats, characterise
from repro.workloads.synthetic import SyntheticWorkload, AlternatingPhaseWorkload
from repro.workloads.eth_price_oracle import EthPriceOracleTrace, ETH_PRICE_ORACLE_DISTRIBUTION
from repro.workloads.btcrelay_trace import BtcRelayTrace, BTCRELAY_DISTRIBUTION
from repro.workloads.ycsb import (
    YCSBWorkload,
    YCSBConfig,
    ZipfianGenerator,
    MixedYCSBWorkload,
    WORKLOAD_PRESETS,
)

__all__ = [
    "WorkloadStats",
    "characterise",
    "SyntheticWorkload",
    "AlternatingPhaseWorkload",
    "EthPriceOracleTrace",
    "ETH_PRICE_ORACLE_DISTRIBUTION",
    "BtcRelayTrace",
    "BTCRELAY_DISTRIBUTION",
    "YCSBWorkload",
    "YCSBConfig",
    "ZipfianGenerator",
    "MixedYCSBWorkload",
    "WORKLOAD_PRESETS",
]
