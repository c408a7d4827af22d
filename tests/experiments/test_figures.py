"""Figure-harness tests: structure checks plus the paper's qualitative claims.

The full-scale runs live in benchmarks/; here we verify each harness
produces well-formed output and, where cheap enough, that the paper's
qualitative findings hold (who wins, in which direction).
"""

from __future__ import annotations

import pytest

from repro.experiments import fig2, fig4, fig5, fig6
from repro.experiments.report import ascii_chart, kv_table, paper_vs_measured
from repro.sim.tracing import StepSeries


class TestFig6:
    def test_latency_matches_paper_band(self):
        result = fig6.run(seed=0, trials=10)
        assert len(result.samples) == 10
        # The simulated latency is calibrated to the paper's 157.4 ± 4.2.
        assert abs(result.mean_s - fig6.PAPER["mean_s"]) < 10.0
        assert result.std_s < 10.0

    def test_trials_are_independent_draws(self):
        result = fig6.run(seed=0, trials=5)
        assert len(set(result.samples)) > 1

    def test_report_renders(self):
        out = fig6.report(fig6.run(seed=0, trials=3))
        assert "paper vs measured" in out


class TestFig4:
    @pytest.fixture(scope="class")
    def results(self):
        return fig4.run(seed=0)

    def test_orderings_match_paper(self, results):
        fine = results["fine-grained"]
        unknown = results["coarse-unknown"]
        known = results["coarse-known"]
        # Runtime: known < fine < unknown (fig 4's key finding).
        assert known.makespan_s < fine.makespan_s < unknown.makespan_s
        # Bandwidth: coarse configurations beat fine-grained.
        assert (
            fine.extras["mean_bandwidth_mbps"]
            < unknown.extras["mean_bandwidth_mbps"]
        )
        # CPU: the unknown-resources configuration wastes the node.
        assert unknown.accounting.utilization < 0.5
        assert known.accounting.utilization > 0.6

    def test_all_tasks_complete(self, results):
        assert all(r.tasks_completed == fig4.N_TASKS for r in results.values())

    def test_report_renders(self, results):
        out = fig4.report(results)
        assert "coarse-unknown" in out
        assert "paper vs measured" in out


class TestFig5:
    def test_staircase_and_chart(self):
        result = fig5.run(seed=0)
        assert result.tasks_completed == 76
        stairs = fig5.cycle_staircase(result)
        assert len(stairs) >= 2
        out = fig5.report(result)
        assert "supply" in out


class TestFig2Structure:
    """Full fig-2 sweeps are bench-scale; here we check the cheapest
    configuration (Config-99 never scales) plus harness structure."""

    def test_config99_never_scales_up(self):
        r = fig2.run_config(0.99, seed=0)
        t0, t1 = r.accountant.window()
        # Worker-pod count stays at the min-replica floor of 3.
        assert r.series("workers_connected").maximum(t0, t1) <= 3.0
        assert r.tasks_completed == fig2.N_TASKS

    def test_ideal_close_to_paper(self):
        r = fig2.run_ideal(seed=0)
        assert r.makespan_s == pytest.approx(fig2.PAPER["runtime_ideal_s"], rel=0.25)


class TestReportHelpers:
    def test_ascii_chart_renders_series(self):
        s = StepSeries("x")
        s.record(0.0, 1.0)
        s.record(50.0, 5.0)
        out = ascii_chart({"x": s}, 0.0, 100.0, width=40, height=6, title="T")
        assert "T" in out and "x" in out
        assert out.count("\n") >= 7

    def test_ascii_chart_too_many_series_rejected(self):
        series = {f"s{i}": StepSeries() for i in range(20)}
        with pytest.raises(ValueError):
            ascii_chart(series, 0.0, 1.0)

    def test_ascii_chart_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart({"x": StepSeries()}, 5.0, 5.0)

    def test_kv_table_aligns(self):
        out = kv_table([("a", "1"), ("long-key", "2")], title="T")
        assert "long-key" in out

    def test_paper_vs_measured_ratios(self):
        out = paper_vs_measured([("metric", 100.0, 150.0)])
        assert "1.50" in out
