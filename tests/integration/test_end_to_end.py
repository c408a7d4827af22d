"""End-to-end integration tests across all subsystems."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.makeflow.parser import parse_makeflow
from repro.workloads.synthetic import fan_in_out, staged_pipeline, uniform_bag


def small_stack(seed=0, min_nodes=2, max_nodes=6):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            node_reservation_mean_s=100.0,
            node_reservation_std_s=1.0,
            node_idle_timeout_s=120.0,
        ),
        seed=seed,
    )


class TestHtaEndToEnd:
    def test_bag_of_tasks_completes(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(30, execute_s=50.0, declared=False),
                policy="hta",
                stack=small_stack(),
            )
        )
        assert r.tasks_completed == 30
        assert r.makespan_s > 0
        assert r.accounting.accumulated_shortage_core_s >= 0

    def test_declared_bag_skips_probing(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(20, execute_s=30.0, declared=True),
                policy="hta",
                stack=small_stack(),
            )
        )
        assert r.tasks_completed == 20

    def test_dag_workflow_completes(self):
        r = run_experiment(
            ExperimentSpec(
                staged_pipeline([12, 3, 12], execute_s=40.0, declared=True),
                policy="hta",
                stack=small_stack(),
            )
        )
        assert r.tasks_completed == 27

    def test_fan_in_out_completes(self):
        r = run_experiment(
            ExperimentSpec(
                fan_in_out(8, execute_s=30.0, declared=True),
                policy="hta",
                stack=small_stack(),
            )
        )
        assert r.tasks_completed == 17

    def test_parsed_makeflow_runs_end_to_end(self):
        text = "\n".join(
            ["CATEGORY=stage1", "CORES=1", "MEMORY=1000", "RUNTIME=20"]
            + [f"m{i}: raw{i}\n\tmap {i}" for i in range(4)]
            + ["CATEGORY=stage2", "RUNTIME=10"]
            + ["final: m0 m1 m2 m3\n\treduce"]
        )
        graph = parse_makeflow(text)
        r = run_experiment(ExperimentSpec(graph, policy="hta", stack=small_stack()))
        assert r.tasks_completed == 5

    def test_scale_up_and_back_down(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(60, execute_s=60.0, declared=True),
                policy="hta",
                stack=small_stack(max_nodes=8),
            )
        )
        t0, t1 = r.accountant.window()
        supply = r.series("supply")
        assert supply.maximum(t0, t1) > 6.0  # grew past initial 2 workers
        assert supply.value_at(t1) == 0.0  # clean-up drained everything


class TestHpaEndToEnd:
    def test_cpu_bound_bag_scales_up(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(40, execute_s=60.0, declared=True),
                policy="hpa",
                stack=small_stack(max_nodes=6),
                options={"target_cpu": 0.2},
            )
        )
        assert r.tasks_completed == 40
        t0, t1 = r.accountant.window()
        assert r.series("supply").maximum(t0, t1) > 6.0

    def test_low_cpu_bag_never_scales(self):
        from repro.workloads.iobound import iobound_parallel

        r = run_experiment(
            ExperimentSpec(
                iobound_parallel(20, execute_s=40.0, declared=True),
                policy="hpa",
                stack=small_stack(),
                options={"target_cpu": 0.5, "min_replicas": 2},
            )
        )
        assert r.tasks_completed == 20
        t0, t1 = r.accountant.window()
        # Supply never exceeded the floor pool of 2 × 3-core workers.
        assert r.series("supply").maximum(t0, t1) <= 6.0 + 1e-9


class TestStaticEndToEnd:
    def test_fixed_pool_completes(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(20, execute_s=30.0, declared=True),
                policy="static",
                stack=small_stack(min_nodes=3),
                options={"n_workers": 3, "estimator": "declared"},
            )
        )
        assert r.tasks_completed == 20
        assert "mean_bandwidth_mbps" in r.extras

    def test_conservative_pool_serializes(self):
        fast = run_experiment(
            ExperimentSpec(
                uniform_bag(12, execute_s=30.0, declared=True),
                policy="static",
                stack=small_stack(min_nodes=3),
                options={"n_workers": 3, "estimator": "declared"},
            )
        )
        slow = run_experiment(
            ExperimentSpec(
                uniform_bag(12, execute_s=30.0, declared=False),
                policy="static",
                stack=small_stack(min_nodes=3),
                options={"n_workers": 3, "estimator": "conservative"},
            )
        )
        assert slow.makespan_s > fast.makespan_s * 1.5

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(
                ExperimentSpec(
                    uniform_bag(1), policy="static", options={"n_workers": 0}
                )
            )


class TestCrossPolicy:
    def test_hta_wastes_less_than_hpa_on_multistage(self):
        """The paper's core claim at small scale."""
        workload = lambda: staged_pipeline([20, 4, 16], execute_s=60.0, declared=True)
        hta = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=small_stack(max_nodes=8))
        )
        hpa = run_experiment(
            ExperimentSpec(
                workload(),
                policy="hpa",
                stack=small_stack(max_nodes=8),
                options={"target_cpu": 0.2},
            )
        )
        assert hta.tasks_completed == hpa.tasks_completed == 40
        assert (
            hta.accounting.accumulated_waste_core_s
            < hpa.accounting.accumulated_waste_core_s
        )

    def test_hta_beats_hpa_on_io_bound(self):
        from repro.workloads.iobound import iobound_parallel

        workload = lambda: iobound_parallel(40, execute_s=60.0, declared=False)
        hta = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=small_stack(max_nodes=8))
        )
        hpa = run_experiment(
            ExperimentSpec(
                workload(),
                policy="hpa",
                stack=small_stack(max_nodes=8),
                options={"target_cpu": 0.2},
            )
        )
        assert hta.makespan_s < hpa.makespan_s
