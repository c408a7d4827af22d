"""Bench: checkpoint/restore migration vs kill-and-requeue (beyond the paper).

Regenerates the migration experiment at full scale — four spot-aware HTA
variants under the same preemption storm, from the kill-and-requeue
baseline through the three Megaphone-style drain policies — and asserts
the contract the subsystem is sold on at the validated seed: batched-fluid
achieves strictly higher goodput AND strictly lower wasted core-seconds
than kill-and-requeue. A second benchmark runs the full-size soak with
the ``migrate`` chaos primitive enabled and asserts zero invariant
violations.
"""

from __future__ import annotations

from benchmarks.conftest import run_once

from repro.experiments import migration
from repro.soak import SoakConfig, run_soak

SEED = 0


def test_migration_deterministic():
    """Two same-seed runs must agree on every headline metric."""
    first = migration.run(SEED, smoke=True)
    second = migration.run(SEED, smoke=True)
    for name in first:
        assert first[name].makespan_s == second[name].makespan_s, name
        assert first[name].extras == second[name].extras, name


def test_migration_full(benchmark):
    results = run_once(benchmark, migration.run, SEED)
    baseline = results["kill-and-requeue"]
    batched = results["batched-fluid"]

    # The storm fired against every variant and every task finished.
    for name, result in results.items():
        assert result.extras["preemptions"] >= migration.STORM_SIZE, name
        assert result.tasks_completed == migration.N_TASKS, name

    # Only the migration variants carry a coordinator; the baseline's
    # extras must not even mention migration.
    assert "migrations_completed" not in baseline.extras
    for name in ("sudden", "fluid", "batched-fluid"):
        assert results[name].extras["migrations_started"] > 0, name
        assert results[name].extras["migrations_completed"] > 0, name
        # Every coordinator-completed migration is a master-accepted one.
        assert (
            results[name].extras["migrations_completed"]
            == results[name].extras["migrations_accepted"]
        ), name

    # The acceptance-gate contract at the validated seed: strictly
    # higher goodput AND strictly lower wasted core-seconds.
    assert migration.goodput_rate(batched) > migration.goodput_rate(baseline)
    assert batched.extras["wasted_core_s"] < baseline.extras["wasted_core_s"]


def test_soak_with_migrations_full(benchmark):
    """A full-size soak with the migrate primitive holds every invariant
    (seed 9: base seed 1, migration armed)."""
    report = run_once(benchmark, run_soak, 9, SoakConfig())
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()
    assert (
        report.stats["tasks_done"] + report.stats["tasks_abandoned"] == 120
    )
