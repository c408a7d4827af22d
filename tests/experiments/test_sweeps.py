"""Tests for the parameter-sweep utilities."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import GKE_SMALL_3CPU, N1_STANDARD_4_RESERVED
from repro.experiments.runner import StackConfig
from repro.experiments.sweeps import (
    sweep_fixed_init_time,
    sweep_hpa_targets,
    sweep_max_workers,
    sweep_table,
    sweep_worker_sizes,
)
from repro.workloads.synthetic import uniform_bag


def stack(seed=0, machine=N1_STANDARD_4_RESERVED, min_nodes=2, max_nodes=6):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=machine,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            node_reservation_mean_s=80.0,
            node_reservation_std_s=0.0,
        ),
        seed=seed,
    )


def workload_factory(n=18, execute_s=40.0):
    return lambda: uniform_bag(n, execute_s=execute_s, declared=True)


class TestHpaTargetSweep:
    def test_runs_each_target(self):
        results = sweep_hpa_targets(
            workload_factory(), [0.2, 0.9], stack_config=stack(), min_replicas=2
        )
        assert set(results) == {0.2, 0.9}
        assert all(r.tasks_completed == 18 for r in results.values())

    def test_high_target_scales_less(self):
        results = sweep_hpa_targets(
            workload_factory(n=30, execute_s=60.0),
            [0.2, 0.95],
            stack_config=stack(),
            min_replicas=2,
        )
        def peak(r):
            t0, t1 = r.accountant.window()
            return r.series("workers_connected").maximum(t0, t1)

        assert peak(results[0.95]) <= peak(results[0.2])


class TestInitTimeSweep:
    def test_live_reference_included(self):
        results = sweep_fixed_init_time(
            workload_factory(), [30.0, 300.0], stack_config=stack()
        )
        assert set(results) == {"live", 30.0, 300.0}
        assert all(r.tasks_completed == 18 for r in results.values())

    def test_short_cycle_plans_more(self):
        results = sweep_fixed_init_time(
            workload_factory(n=30, execute_s=60.0),
            [10.0, 400.0],
            stack_config=stack(),
            include_live=False,
        )
        assert results[10.0].extras["plans"] > results[400.0].extras["plans"]


class TestWorkerSizeSweep:
    def test_granularity_curve(self):
        results = sweep_worker_sizes(
            workload_factory(n=24, execute_s=30.0),
            [1.0, 3.0],
            stack_config=stack(machine=GKE_SMALL_3CPU, min_nodes=4, max_nodes=4),
            total_cores=12.0,
        )
        assert set(results) == {1.0, 3.0}
        assert all(r.tasks_completed == 24 for r in results.values())

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            sweep_worker_sizes(
                workload_factory(), [0.0], stack_config=stack(), total_cores=12.0
            )


class TestQuotaSweep:
    def test_larger_quota_never_slower(self):
        results = sweep_max_workers(
            workload_factory(n=36, execute_s=60.0),
            [3, 6],
            stack_config=stack(max_nodes=8),
            initial_workers=3,
        )
        assert results[6].makespan_s <= results[3].makespan_s

    def test_quota_below_initial_rejected(self):
        with pytest.raises(ValueError):
            sweep_max_workers(
                workload_factory(), [2], stack_config=stack(), initial_workers=3
            )


class TestRendering:
    def test_sweep_table_lists_rows(self):
        results = sweep_hpa_targets(
            workload_factory(n=8, execute_s=20.0),
            [0.5],
            stack_config=stack(),
            min_replicas=2,
        )
        table = sweep_table(results, title="T")
        assert "T" in table
        assert "0.5" in table
