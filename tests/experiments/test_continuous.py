"""Tests for arrival streams and stream workloads run through the registry."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import (
    ExperimentSpec,
    FaultProfile,
    StackConfig,
    WorkflowFailed,
    run_experiment,
)
from repro.makeflow.dag import WorkflowGraph
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import (
    WorkflowArrival,
    periodic_arrivals,
    poisson_arrivals,
    total_tasks,
)
from repro.workloads.synthetic import uniform_bag


def factory(i: int) -> WorkflowGraph:
    return WorkflowGraph(uniform_bag(8, execute_s=60.0, declared=False, category="job"))


def stack(seed=0, faults=None):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=6,
            node_reservation_mean_s=80.0,
            node_reservation_std_s=0.0,
        ),
        seed=seed,
        faults=faults,
    )


def run_hta(arrivals):
    return run_experiment(
        ExperimentSpec(arrivals, policy="hta", stack=stack(), name="HTA-stream")
    )


def run_hpa(arrivals):
    return run_experiment(
        ExperimentSpec(
            arrivals,
            policy="hpa",
            stack=stack(),
            name="HPA-20%-stream",
            options={"target_cpu": 0.2},
        )
    )


class TestArrivalGenerators:
    def test_periodic_spacing(self):
        arrivals = periodic_arrivals(factory, interval_s=100.0, count=4, start_s=50.0)
        assert [a.time_s for a in arrivals] == [50.0, 150.0, 250.0, 350.0]
        assert [a.index for a in arrivals] == [0, 1, 2, 3]

    def test_poisson_deterministic_per_seed(self):
        a = poisson_arrivals(factory, rng=RngRegistry(5), rate_per_hour=10, horizon_s=3600)
        b = poisson_arrivals(factory, rng=RngRegistry(5), rate_per_hour=10, horizon_s=3600)
        assert [x.time_s for x in a] == [x.time_s for x in b]

    def test_poisson_rate_roughly_respected(self):
        arrivals = poisson_arrivals(
            factory, rng=RngRegistry(1), rate_per_hour=60, horizon_s=10 * 3600
        )
        assert 450 < len(arrivals) < 750  # ~600 expected

    def test_total_tasks(self):
        arrivals = periodic_arrivals(factory, interval_s=10.0, count=3)
        assert total_tasks(arrivals) == 24

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            periodic_arrivals(factory, interval_s=0, count=1)
        with pytest.raises(ValueError):
            periodic_arrivals(factory, interval_s=1, count=0)
        with pytest.raises(ValueError):
            poisson_arrivals(factory, rng=RngRegistry(0), rate_per_hour=0, horizon_s=10)
        with pytest.raises(ValueError):
            WorkflowArrival(-1.0, factory(0), 0)


class TestContinuousHta:
    def test_stream_completes_all_workflows(self):
        arrivals = periodic_arrivals(factory, interval_s=200.0, count=4)
        res = run_hta(arrivals)
        assert res.workflows == 4
        assert res.tasks_completed == 32
        assert len(res.workflow_makespans) == 4
        assert res.throughput_tasks_per_hour > 0
        assert "workflows" in res.summary()

    def test_category_stats_carry_across_instances(self):
        """The first workflow pays the probe; later identical workflows
        reuse its category estimate and finish faster."""
        arrivals = periodic_arrivals(factory, interval_s=600.0, count=3)
        res = run_hta(arrivals)
        first, *rest = res.workflow_makespans
        assert all(m < first for m in rest)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_hta([])

    def test_mixed_tasks_and_arrivals_rejected(self):
        mixed = uniform_bag(2, execute_s=10.0) + periodic_arrivals(
            factory, interval_s=100.0, count=1
        )
        with pytest.raises(TypeError):
            run_hta(mixed)

    def test_failed_workflow_raises_workflow_failed(self):
        arrivals = periodic_arrivals(factory, interval_s=200.0, count=2)
        with pytest.raises(WorkflowFailed):
            run_experiment(
                ExperimentSpec(
                    arrivals,
                    policy="hta",
                    stack=stack(
                        faults=FaultProfile(task_failure_prob=1.0, max_retries=0)
                    ),
                )
            )


class TestContinuousHpa:
    def test_stream_completes(self):
        arrivals = periodic_arrivals(factory, interval_s=200.0, count=3)
        res = run_hpa(arrivals)
        assert res.tasks_completed == 24
        assert res.workflows == 3

    def test_hta_wastes_less_on_streams_too(self):
        def declared_factory(i):
            return WorkflowGraph(uniform_bag(8, execute_s=60.0, declared=True))

        arrivals = lambda: periodic_arrivals(declared_factory, interval_s=300.0, count=4)
        hta = run_hta(arrivals())
        hpa = run_hpa(arrivals())
        assert (
            hta.accounting.accumulated_waste_core_s
            <= hpa.accounting.accumulated_waste_core_s
        )
