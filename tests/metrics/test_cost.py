"""Tests for the pay-as-you-go cost model."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.metrics.cost import CostBreakdown, CostModel, DEFAULT_HOURLY_PRICES
from repro.workloads.synthetic import uniform_bag


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        ExperimentSpec(
            uniform_bag(12, execute_s=30.0, declared=True),
            policy="hta",
            stack=StackConfig(
                cluster=ClusterConfig(
                    machine_type=N1_STANDARD_4_RESERVED, min_nodes=2, max_nodes=4
                ),
                seed=8,
            ),
        )
    )


class TestCostBreakdown:
    def test_total_is_hours_times_price(self):
        b = CostBreakdown(node_hours=10.0, hourly_price=0.19)
        assert b.total_usd == pytest.approx(1.9)

    def test_str_rendering(self):
        assert "node-hours" in str(CostBreakdown(1.0, 0.19))


class TestCostModel:
    def test_default_prices_cover_builtin_machines(self):
        model = CostModel()
        for name in ("n1-standard-4", "n1-standard-4-reserved", "gke-3cpu-12gb"):
            assert model.price_for(name) > 0

    def test_unknown_machine_raises(self):
        with pytest.raises(KeyError):
            CostModel().price_for("quantum-9000")

    def test_unknown_machine_error_is_informative(self):
        with pytest.raises(KeyError, match="quantum-9000"):
            CostModel().price_for("quantum-9000")
        with pytest.raises(KeyError, match="default_hourly_price"):
            CostModel().price_for("quantum-9000")

    def test_default_hourly_price_fallback(self):
        model = CostModel(default_hourly_price=0.25)
        # Known machines still use their table price ...
        assert model.price_for("n1-standard-4") == DEFAULT_HOURLY_PRICES["n1-standard-4"]
        # ... unknown machines fall back instead of raising.
        assert model.price_for("quantum-9000") == 0.25

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            CostModel({"m": -1.0})
        with pytest.raises(ValueError):
            CostModel(default_hourly_price=-0.1)

    def test_cost_of_integrates_node_series(self, result):
        model = CostModel()
        breakdown = model.cost_of(result, "n1-standard-4-reserved")
        # At least the 2 base nodes for the whole run.
        min_hours = 2 * result.accounting.runtime_s / 3600.0
        assert breakdown.node_hours >= min_hours * 0.99
        assert breakdown.total_usd > 0

    def test_cost_consistent_with_mean_node_count(self, result):
        model = CostModel()
        breakdown = model.cost_of(result, "n1-standard-4-reserved")
        t0, t1 = result.accountant.window()
        mean_nodes = result.series("nodes").mean(t0, t1)
        expected_hours = mean_nodes * (t1 - t0) / 3600.0
        assert breakdown.node_hours == pytest.approx(expected_hours, rel=1e-9)

    def test_savings_zero_against_self(self, result):
        model = CostModel()
        assert model.savings(result, result, "n1-standard-4-reserved") == pytest.approx(0.0)

    def test_savings_sign(self, result):
        model = CostModel()
        # A hypothetical baseline twice as expensive → 50% savings.
        class Doubled:
            accountant = result.accountant

            @staticmethod
            def series(name):
                import copy

                s = copy.deepcopy(result.series(name))
                s.values = [v * 2 for v in s.values]
                s.initial *= 2
                return s

        assert model.savings(result, Doubled(), "n1-standard-4-reserved") == pytest.approx(
            0.5, abs=0.01
        )
