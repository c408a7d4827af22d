"""End-to-end tests for the chaos-soak harness."""

from __future__ import annotations

import pytest

from repro.soak import (
    SoakConfig,
    first_violation,
    run_soak,
    run_soak_batch,
)

SMOKE = SoakConfig().smoke()


class TestSmokeConfig:
    def test_smoke_is_a_shrunk_copy(self):
        full = SoakConfig()
        assert SMOKE.n_tasks < full.n_tasks
        assert SMOKE.max_nodes < full.max_nodes
        assert SMOKE.schedule.max_events <= full.schedule.max_events


class TestRunSoak:
    @pytest.fixture(scope="class")
    def report(self):
        return run_soak(16, SMOKE)

    def test_run_quiesces_clean(self, report):
        assert report.quiesced
        assert report.ok, [str(v) for v in report.violations]

    def test_schedule_recorded(self, report):
        assert report.seed == 16
        assert len(report.events) >= SMOKE.schedule.min_events

    def test_stats_populated(self, report):
        assert report.stats["tasks_done"] + report.stats["tasks_abandoned"] == 60
        assert report.stats["journal_records"] > 0
        assert report.stats["sim_time_s"] > 0

    def test_describe_names_the_seed(self, report):
        text = report.describe()
        assert "soak seed=16: OK" in text
        assert "strike" in text

    def test_rerun_is_deterministic(self, report):
        again = run_soak(16, SMOKE)
        assert again.events == report.events
        assert again.stats == report.stats
        assert again.ok == report.ok


class TestArmedRun:
    def test_describe_names_the_armed_features(self):
        report = run_soak(8 * 2 + 6, SMOKE)  # base seed 2, integrity + sharded
        assert report.describe().startswith("soak seed=22 [integrity, sharded]: OK")
        assert "shard_failovers" in report.stats
        assert "quarantines" in report.stats
        assert "migrations_started" not in report.stats


class TestBatch:
    def test_batch_runs_every_seed(self):
        reports = run_soak_batch([8, 16], SMOKE)
        assert [r.seed for r in reports] == [8, 16]
        assert first_violation(reports) is None

    def test_first_violation_picks_the_failure(self):
        reports = run_soak_batch([8], SMOKE)
        reports[0].violations.append("boom")
        assert first_violation(reports) is reports[0]


class TestFailureReporting:
    def test_failing_report_carries_reproduction_recipe(self):
        report = run_soak(24, SMOKE)
        report.violations.append("synthetic")
        text = report.describe()
        assert "VIOLATION" in text
        assert "python -m repro.experiments soak --seed 24" in text
