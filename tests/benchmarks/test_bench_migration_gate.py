"""The migration benchmark's no-thrash gate (CI ``migration-smoke``).

The lane-to-lane move count is a pure function of the schedule seed, so the
benchmark refuses a run that moves more feeds than the committed
``BENCH_migration.json`` records for the same configuration — modulo-style
lane assignment cannot come back unnoticed.
"""

from __future__ import annotations

import json

import pytest

import bench_migration

SMALL_OPS = 16


def test_committed_figure_only_applies_to_its_own_configuration(tmp_path, monkeypatch):
    config = bench_migration.run_config(bench_migration.DEFAULT_SEED, SMALL_OPS)
    committed = tmp_path / "BENCH_migration.json"
    monkeypatch.setattr(bench_migration, "COMMITTED", committed)
    assert bench_migration.committed_migrations(config) is None  # no file yet
    committed.write_text(
        json.dumps({"config": config, "results": {"ipc": {"migrations_total": 17}}})
    )
    assert bench_migration.committed_migrations(config) == 17
    other_seed = bench_migration.run_config(bench_migration.DEFAULT_SEED + 1, SMALL_OPS)
    assert bench_migration.committed_migrations(other_seed) is None


def test_run_with_more_moves_than_committed_is_refused(tmp_path, monkeypatch):
    config = bench_migration.run_config(bench_migration.DEFAULT_SEED, SMALL_OPS)
    committed = tmp_path / "BENCH_migration.json"
    committed.write_text(
        json.dumps({"config": config, "results": {"ipc": {"migrations_total": 0}}})
    )
    monkeypatch.setattr(bench_migration, "COMMITTED", committed)
    with pytest.raises(AssertionError, match="lane assignment is thrashing"):
        bench_migration.run_benchmark(bench_migration.DEFAULT_SEED, SMALL_OPS)


def test_committed_record_matches_the_current_placement():
    payload = bench_migration.run_benchmark(
        bench_migration.DEFAULT_SEED, bench_migration.OPS_PER_FEED
    )
    committed = json.loads(bench_migration.COMMITTED.read_text())
    assert payload["config"] == committed["config"]
    assert (
        payload["results"]["ipc"]["migrations_total"]
        == committed["results"]["ipc"]["migrations_total"]
    )
