"""Tests for the hybrid HTA mode: forecast arrivals inside Algorithm 1."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.resources import ResourceVector
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.hta.estimator import (
    EstimatorConfig,
    ForecastArrival,
    ResourceEstimator,
    SimulatedTask,
)
from repro.hta.operator import HtaConfig
from repro.makeflow.dag import WorkflowGraph
from repro.workloads.arrivals import periodic_arrivals
from repro.workloads.synthetic import uniform_bag

WORKER = ResourceVector(3, 14 * 1024, 90 * 1024)
TASK = ResourceVector(1, 2500, 2000)


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


class TestForecastArrivalValidation:
    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            ForecastArrival(SimulatedTask(TASK, 60.0), -1.0)


class TestEstimatorFutureArrivals:
    def test_empty_queue_with_predicted_arrivals_scales_up(self):
        est = ResourceEstimator(WORKER, EstimatorConfig())
        arrivals = [
            ForecastArrival(SimulatedTask(TASK, 300.0), eta_s=40.0)
            for _ in range(6)
        ]
        reactive = est.estimate(160.0, [], [], 0, 0)
        hybrid = est.estimate(160.0, [], [], 0, 0, future_arrivals=arrivals)
        # Reactive Algorithm 1 sees nothing; the hybrid plan provisions
        # for the predicted mid-cycle inflow.
        assert reactive.delta == 0
        assert hybrid.delta == 2  # 6 one-core tasks / 3-core workers

    def test_arrivals_past_the_cycle_are_ignored(self):
        est = ResourceEstimator(WORKER, EstimatorConfig())
        late = [ForecastArrival(SimulatedTask(TASK, 300.0), eta_s=1000.0)]
        plan = est.estimate(160.0, [], [], 0, 0, future_arrivals=late)
        assert plan.delta == 0

    def test_default_reactive_path_is_untouched(self):
        """`future_arrivals=()` must reproduce the paper's Algorithm 1
        bit-for-bit — compare against an explicit omission."""
        est = ResourceEstimator(WORKER, EstimatorConfig())
        running = [SimulatedTask(TASK, 50.0) for _ in range(9)]
        waiting = [SimulatedTask(TASK, 60.0) for _ in range(9)]
        a = est.estimate(160.0, running, waiting, 3, 0)
        b = est.estimate(160.0, running, waiting, 3, 0, future_arrivals=())
        assert (a.delta, a.action, a.next_action_s) == (b.delta, b.action, b.next_action_s)

    def test_predicted_arrivals_absorbed_by_completions_hold(self):
        est = ResourceEstimator(WORKER, EstimatorConfig())
        running = [SimulatedTask(TASK, 30.0) for _ in range(9)]
        arrivals = [
            ForecastArrival(SimulatedTask(TASK, 60.0), eta_s=50.0)
            for _ in range(9)
        ]
        # 9 cores free up at t=30, predicted inflow lands at t=50: the
        # forward simulation dispatches it into existing capacity.
        plan = est.estimate(160.0, running, [], 3, 0, future_arrivals=arrivals)
        assert plan.delta == 0


class TestHybridConfig:
    def test_hybrid_off_by_default(self):
        assert HtaConfig().forecast_arrivals is False


class TestHybridEndToEnd:
    def test_hybrid_completes_a_single_workload(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(18, execute_s=40.0, declared=True),
                policy="hta",
                stack=stack(),
                options={
                    "hta_config": HtaConfig(
                        initial_workers=2, max_workers=8, forecast_arrivals=True
                    )
                },
            )
        )
        assert r.tasks_completed == 18

    def test_hybrid_is_deterministic(self):
        def once():
            r = run_experiment(
                ExperimentSpec(
                    periodic_arrivals(
                        lambda i: WorkflowGraph(
                            uniform_bag(9, execute_s=40.0, declared=True)
                        ),
                        interval_s=300.0,
                        count=3,
                    ),
                    policy="hta",
                    stack=stack(),
                    options={
                        "hta_config": HtaConfig(
                            initial_workers=2, max_workers=8, forecast_arrivals=True
                        )
                    },
                )
            )
            return (
                r.makespan_s,
                tuple(r.workflow_makespans),
                r.accounting.accumulated_waste_core_s,
            )

        assert once() == once()
