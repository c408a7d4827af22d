"""The bench driver: measurement, report emission, and wall-boxing."""

from __future__ import annotations

import gc
import json

import pytest

from repro.makeflow.manager import WorkflowManager
from repro.perf.bench import BenchConfig, BenchReport, GcClock, run_bench, run_scenario
from repro.perf.gate import check_regression, load_report
from repro.perf.scenarios import PerfScenario

#: Small enough to finish in a couple of wall seconds, big enough to
#: exercise scale-up, dispatch, and drain.
TINY = PerfScenario(
    name="tiny-perf",
    n_tasks=40,
    max_nodes=10,
    policy="hta",
    execute_s=10.0,
)


@pytest.fixture(scope="module")
def tiny_run():
    return run_scenario(TINY, max_wall_s=120.0)


class TestRunScenario:
    def test_completes_and_measures(self, tiny_run):
        m = tiny_run
        assert m.scenario == "tiny-perf" and m.policy == "hta"
        assert m.completed
        assert m.tasks_completed == m.tasks_total == 40
        assert m.events > 0 and m.sim_s > 0 and m.wall_s > 0
        assert m.peak_rss_mb > 0

    def test_derived_rates(self, tiny_run):
        m = tiny_run
        assert m.sim_per_wall == pytest.approx(m.sim_s / m.wall_s)
        assert m.events_per_sec == pytest.approx(m.events / m.wall_s)
        row = m.row()
        assert row["sim_per_wall"] == round(m.sim_per_wall, 2)
        assert row["completed"] is True

    def test_fixed_seed_event_count_is_reproducible(self, tiny_run):
        """The determinism signal the gate relies on."""
        again = run_scenario(TINY, max_wall_s=120.0)
        assert again.events == tiny_run.events
        assert again.sim_s == tiny_run.sim_s

    def test_wall_box_yields_partial_run(self):
        m = run_scenario(TINY, max_wall_s=0.0)
        assert not m.completed
        assert m.tasks_completed < m.tasks_total


class TestRunBench:
    def test_emits_report_and_per_run_results(self, tmp_path):
        config = BenchConfig(
            scenarios=[TINY], out_dir=tmp_path / "out", max_wall_s=120.0
        )
        report = run_bench(config, echo=lambda *_: None)
        assert [m.scenario for m in report.runs] == ["tiny-perf"]
        per_run = tmp_path / "out" / "tiny-perf" / "result.json"
        assert json.loads(per_run.read_text())["scenario"] == "tiny-perf"
        top = json.loads((tmp_path / "out" / "BENCH_PERF.json").read_text())
        assert top["schema"] == 1
        assert "tiny-perf" in top["runs"]
        assert top["runs"]["tiny-perf"]["events"] == report.runs[0].events

    def test_speedup_vs_reference(self, tmp_path):
        reference = tmp_path / "reference.json"
        reference.write_text(
            json.dumps({"runs": {"tiny-perf": {"sim_per_wall": 1.0}}})
        )
        config = BenchConfig(
            scenarios=[TINY],
            out_dir=tmp_path / "out",
            max_wall_s=120.0,
            reference_path=reference,
        )
        report = run_bench(config, echo=lambda *_: None)
        ratio = report.speedup_vs_reference["tiny-perf"]
        assert ratio == pytest.approx(report.runs[0].sim_per_wall)
        assert f"{ratio:.1f}x" in report.table()


#: A rung whose manager is forced to report failure (see ``fail_rung``).
FAILING = PerfScenario(
    name="tiny-failing", n_tasks=30, max_nodes=10, policy="hta", execute_s=10.0
)


@pytest.fixture
def fail_rung(monkeypatch):
    """Every completion of a ``FAILING`` workflow is reported as an
    abandonment, the way a task past its retry budget is."""
    completed = WorkflowManager._task_completed

    def task_completed(self, task, result):
        if len(self.graph) == FAILING.n_tasks:
            self._task_abandoned(task)
        else:
            completed(self, task, result)

    monkeypatch.setattr(WorkflowManager, "_task_completed", task_completed)


class TestFailedRung:
    def test_failure_is_recorded_not_raised(self, fail_rung):
        m = run_scenario(FAILING, max_wall_s=120.0)
        assert not m.completed
        assert m.tasks_abandoned >= 1
        assert 0 < m.sim_s < FAILING.max_sim_time_s
        row = m.row()
        assert row["completed"] is False
        assert row["tasks_abandoned"] == m.tasks_abandoned
        assert "FAIL" in BenchReport(runs=[m]).table()

    def test_sweep_moves_on_to_the_next_rung(self, fail_rung, tmp_path):
        lines = []
        config = BenchConfig(
            scenarios=[FAILING, TINY], out_dir=tmp_path / "out", max_wall_s=120.0
        )
        report = run_bench(config, echo=lines.append)
        failed, tiny = report.runs
        assert not failed.completed and tiny.completed
        assert any(
            "tiny-failing" in line and "workflow failed" in line for line in lines
        )
        top = json.loads((tmp_path / "out" / "BENCH_PERF.json").read_text())
        assert top["schema"] == 1
        assert top["runs"]["tiny-failing"]["completed"] is False


def test_table_renders_without_runs():
    assert "scenario" in BenchReport(runs=[]).table()


class TestGcClock:
    def test_counts_collections_per_generation_and_their_pauses(self):
        with GcClock() as clock:
            gc.collect(1)
            gc.collect(2)
        assert clock.collections[1] >= 1 and clock.collections[2] >= 1
        assert clock.pause_s > 0
        assert clock._callback not in gc.callbacks
        before = list(clock.collections)
        gc.collect()
        assert clock.collections == before  # not counting once exited

    def test_run_reports_gc_in_its_row_and_table(self, tiny_run):
        m = tiny_run
        assert 0 <= m.gc_pause_s <= m.wall_s
        assert len(m.gc_collections) == 3 and min(m.gc_collections) >= 0
        row = m.row()
        assert row["gc_pause_s"] == m.gc_pause_s
        assert row["gc_collections"] == list(m.gc_collections)
        assert json.loads(json.dumps(row)) == row
        assert "gc_s" in BenchReport(runs=[m]).table()

    def test_gate_reads_reports_without_gc_fields(self, tiny_run, tmp_path):
        old = {k: v for k, v in tiny_run.row().items() if not k.startswith("gc_")}
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 1, "runs": {"tiny-perf": old}}))
        baseline = load_report(path)
        result = check_regression({"tiny-perf": tiny_run.row()}, baseline)
        assert result.ok and result.compared == ["tiny-perf"]
        assert check_regression(baseline, {"tiny-perf": tiny_run.row()}).ok
