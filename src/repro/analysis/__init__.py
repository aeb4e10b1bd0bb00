"""Experiment runners and reporting for the paper's evaluation section.

* :mod:`repro.analysis.experiments` — one runner per table/figure; each
  returns a structured result object,
* :mod:`repro.analysis.figures` — the table of figures (key → title and runner
  with the paper's arguments) that the tests, ``python -m repro.analysis`` and
  the README's results all read, and how each result shape prints,
* :mod:`repro.analysis.reporting` — plain-text table/series formatting used by
  that command, the gateway's reports and the examples.
"""

from repro.analysis.experiments import (
    ExperimentScale,
    SweepResult,
    run_ratio_sweep,
    run_eth_price_oracle_experiment,
    run_btcrelay_experiment,
    run_ycsb_experiment,
    run_algorithm_comparison,
    run_record_size_sweep,
    run_parameter_k_sweep,
    run_ycsb_parameter_k_sweep,
    run_threshold_ratio_experiment,
    run_adaptive_k_experiment,
    run_workload_characterisation,
)
from repro.analysis.reporting import format_table, format_series, percent_difference

__all__ = [
    "ExperimentScale",
    "SweepResult",
    "run_ratio_sweep",
    "run_eth_price_oracle_experiment",
    "run_btcrelay_experiment",
    "run_ycsb_experiment",
    "run_algorithm_comparison",
    "run_record_size_sweep",
    "run_parameter_k_sweep",
    "run_ycsb_parameter_k_sweep",
    "run_threshold_ratio_experiment",
    "run_adaptive_k_experiment",
    "run_workload_characterisation",
    "format_table",
    "format_series",
    "percent_difference",
]
