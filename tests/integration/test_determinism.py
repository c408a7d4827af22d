"""Determinism: same seed → bit-identical results; different seed → jitter."""

from __future__ import annotations

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.workloads.synthetic import staged_pipeline, uniform_bag


def stack(seed):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=5,
            node_reservation_mean_s=100.0,
            node_reservation_std_s=3.0,
        ),
        seed=seed,
    )


def run(workload, seed, policy="hta", **options):
    return run_experiment(
        ExperimentSpec(workload, policy=policy, stack=stack(seed), options=options)
    )


def fingerprint(result):
    return (
        result.makespan_s,
        result.accounting.accumulated_waste_core_s,
        result.accounting.accumulated_shortage_core_s,
        result.tasks_completed,
        result.workers_started,
    )


class TestReplay:
    def test_hta_replays_bit_identically(self):
        a = run(uniform_bag(15, execute_s=40.0, declared=False), 7)
        b = run(uniform_bag(15, execute_s=40.0, declared=False), 7)
        assert fingerprint(a) == fingerprint(b)

    def test_hpa_replays_bit_identically(self):
        wl = lambda: uniform_bag(15, execute_s=40.0, declared=True)
        a = run(wl(), 7, "hpa", target_cpu=0.2)
        b = run(wl(), 7, "hpa", target_cpu=0.2)
        assert fingerprint(a) == fingerprint(b)

    def test_dag_replays_bit_identically(self):
        wl = lambda: staged_pipeline([8, 2, 8], execute_s=30.0, declared=True)
        a = run(wl(), 3)
        b = run(wl(), 3)
        assert fingerprint(a) == fingerprint(b)

    def test_series_replay_identical(self):
        wl = lambda: uniform_bag(10, execute_s=30.0, declared=True)
        a = run(wl(), 5)
        b = run(wl(), 5)
        sa, sb = a.series("supply"), b.series("supply")
        assert sa.times == sb.times
        assert sa.values == sb.values


class TestSeedSensitivity:
    def test_different_seeds_diverge(self):
        """Node-provisioning jitter must actually vary with the seed."""
        results = {
            fingerprint(run(uniform_bag(30, execute_s=40.0, declared=True), seed))
            for seed in (1, 2, 3)
        }
        assert len(results) > 1
