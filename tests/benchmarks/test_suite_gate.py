"""The CI ``suite-gate`` job's verdict, at file level.

The job runs ``benchmarks/suite/run.py`` on the parent and on the change,
compares the two result files with ``--compare`` and fails on a ``worse`` row
— not on the exit status, which an ``unresolved`` row also raises and which a
short run on a shared host produces on unchanged code.  Checked here on
crafted result files with the real bounds, reading the same printed column
the workflow step greps: green on a file against itself, red on a seeded
30 % slowdown, green on 10 %.
"""

from __future__ import annotations

import json

from suite.compare import compare
from suite.metrics import END_TO_END
from suite.workloads import WORKLOADS

JITTER = (1.0, 1.01, 0.99, 1.005, 0.995)
BASE = {"ops_per_s": 18000.0, "gas_per_op": 21000.0, "peak_rss_mb": 120.0, "setup_s": 0.4}


def write_results(path, ops_scale=lambda workload, rep: 1.0):
    """A result file in the suite's ``runs`` shape: five runs per workload,
    ``ops_per_s`` multiplied by ``ops_scale(workload, repetition)``."""
    runs = []
    for workload in WORKLOADS:
        for rep, jitter in enumerate(JITTER):
            values = {metric: base * jitter for metric, base in BASE.items()}
            values["ops_per_s"] *= ops_scale(workload, rep)
            runs.append(
                {
                    "workload": workload,
                    "metrics": {metric: {"value": value} for metric, value in values.items()},
                }
            )
    path.write_text(json.dumps({"runs": runs}))
    return path


def gate(capsys, a, b):
    """``(exit status, {(metric, workload): verdict})`` as the table prints it."""
    status = compare(a, b)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    metrics = {metric.name for metric in END_TO_END}
    return status, {(row[0], row[1]): row[-1] for row in rows if row and row[0] in metrics}


def test_a_file_against_itself_agrees_on_every_row(tmp_path, capsys):
    assert set(BASE) == {metric.name for metric in END_TO_END}
    a = write_results(tmp_path / "a.json")
    status, verdicts = gate(capsys, a, a)
    assert status == 0
    assert len(verdicts) == len(END_TO_END) * len(WORKLOADS)
    assert set(verdicts.values()) == {"agree"}


def test_a_30_percent_slowdown_is_worse_and_10_percent_is_not(tmp_path, capsys):
    a = write_results(tmp_path / "a.json")
    b70 = write_results(tmp_path / "b70.json", lambda workload, rep: 0.70)
    b90 = write_results(tmp_path / "b90.json", lambda workload, rep: 0.90)
    status, verdicts = gate(capsys, a, b70)
    assert status == 1
    assert {key for key, verdict in verdicts.items() if verdict == "worse"} == {
        ("ops_per_s", workload) for workload in WORKLOADS
    }
    status, verdicts = gate(capsys, a, b90)
    assert status == 0 and set(verdicts.values()) == {"agree"}


def test_a_spread_wider_than_the_bound_is_unresolved_never_worse(tmp_path, capsys):
    """What a 3-round run on a shared host reads on unchanged code: the exit
    status is 1, and the job must stay green."""
    a = write_results(tmp_path / "a.json")
    noisy = write_results(
        tmp_path / "noisy.json",
        lambda workload, rep: (0.6, 1.0, 1.4, 1.8, 0.9)[rep] if workload == "lanes_read" else 1.0,
    )
    status, verdicts = gate(capsys, a, noisy)
    assert status == 1
    assert verdicts.pop(("ops_per_s", "lanes_read")) == "unresolved"
    assert set(verdicts.values()) == {"agree"}
