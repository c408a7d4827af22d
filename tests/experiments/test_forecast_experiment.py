"""Tests for the predictive experiment runners and the forecast_cmp harness."""

from __future__ import annotations

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.forecast.scaler import PredictiveScalerConfig
from repro.makeflow.dag import WorkflowGraph
from repro.workloads.arrivals import periodic_arrivals
from repro.workloads.synthetic import uniform_bag


def stack(seed=0):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=8,
            node_reservation_mean_s=80.0,
            node_reservation_std_s=0.0,
        ),
        seed=seed,
    )


def small_stream(n_bursts=2, tasks=6):
    return periodic_arrivals(
        lambda i: WorkflowGraph(uniform_bag(tasks, execute_s=40.0, declared=True)),
        interval_s=300.0,
        count=n_bursts,
    )


class TestRunPredictiveExperiment:
    def test_completes_a_workload(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(18, execute_s=40.0, declared=True),
                policy="predictive",
                stack=stack(),
            )
        )
        assert r.tasks_completed == 18
        assert r.name == "Predictive"
        assert "scale_events" in r.extras
        assert "decisions" in r.extras
        assert r.extras["decisions"] > 0

    def test_respects_scaler_config_bounds(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(12, execute_s=40.0, declared=True),
                policy="predictive",
                stack=stack(),
                options={
                    "scaler_config": PredictiveScalerConfig(
                        min_workers=2, max_workers=3
                    )
                },
            )
        )
        assert r.tasks_completed == 12
        t0, t1 = r.accountant.window()
        assert r.series("forecast_pool").maximum(t0, t1) <= 3.0

    def test_deterministic_replay(self):
        def once():
            r = run_experiment(
                ExperimentSpec(
                    uniform_bag(12, execute_s=40.0, declared=True),
                    policy="predictive",
                    stack=stack(seed=4),
                )
            )
            return (
                r.makespan_s,
                r.accounting.accumulated_waste_core_s,
                r.accounting.accumulated_shortage_core_s,
            )

        assert once() == once()


def run_stream(policy, name, **options):
    return run_experiment(
        ExperimentSpec(
            small_stream(), policy=policy, name=name, stack=stack(), options=options
        )
    )


class TestContinuousRunners:
    def test_predictive_stream_completes(self):
        r = run_stream("predictive", "Predictive-stream")
        assert r.workflows == 2
        assert r.tasks_completed == 12
        assert r.makespan_s > 0

    def test_queue_scaler_stream_completes(self):
        r = run_stream("queue", "KEDA-stream", tasks_per_replica=3.0)
        assert r.workflows == 2
        assert r.tasks_completed == 12


class TestForecastCmpHarness:
    def test_module_shape(self):
        from repro.experiments import forecast_cmp

        assert forecast_cmp.BURSTS * forecast_cmp.BURST_TASKS == 180
        assert callable(forecast_cmp.run)
        assert callable(forecast_cmp.report)
        assert callable(forecast_cmp.main)

    def test_report_renders_without_running(self):
        # report() only formats; build it from a cheap two-policy run.
        from repro.experiments import forecast_cmp

        results = {
            "HTA": run_stream("predictive", "HTA"),
            "HTA-hybrid": run_stream("predictive", "HTA-hybrid"),
            "Predictive": run_stream("predictive", "Predictive"),
            "KEDA-queue": run_stream("queue", "KEDA-queue"),
        }
        out = forecast_cmp.report(results)
        assert "Forecast comparison" in out
        assert "KEDA-queue" in out
        assert "wastes" in out
