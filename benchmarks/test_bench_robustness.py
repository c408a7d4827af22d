"""Bench: HTA under infrastructure churn (beyond the paper).

Pods are "disposable object[s] which might fail or restart" (§II-C).
This bench runs the multistage workflow while a chaos schedule crashes a
random worker node every ~10 simulated minutes, and verifies the whole
stack converges: tasks requeue, the cloud controller heals the pool, HTA
re-provisions, and the workflow completes with bounded overhead.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import run_once

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import (
    ExperimentSpec,
    FaultProfile,
    StackConfig,
    run_experiment,
)
from repro.workloads.synthetic import staged_pipeline


def _run(seed: int, chaos_interval_s: float | None):
    cfg = StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=3,
            max_nodes=10,
            node_reservation_mean_s=100.0,
            node_reservation_std_s=3.0,
        ),
        seed=seed,
        max_sim_time_s=50_000.0,
    )
    workload = staged_pipeline([40, 6, 30], execute_s=120.0, declared=True)
    if chaos_interval_s is None:
        return run_experiment(
            ExperimentSpec(workload, policy="hta", stack=cfg, name="calm")
        )
    # A fault profile arms the crash schedule and, with it, the defences
    # HTA runs under faults (defended provisioner, robust init-time
    # tracker, informer resync, speculation).
    return run_experiment(
        ExperimentSpec(
            workload,
            policy="hta",
            stack=replace(
                cfg, faults=FaultProfile(node_crash_interval_s=chaos_interval_s)
            ),
            name="chaotic",
        )
    )


def test_hta_survives_node_churn(benchmark, capsys):
    def run_both():
        calm = _run(seed=0, chaos_interval_s=None)
        chaotic = _run(seed=0, chaos_interval_s=600.0)
        return calm, chaotic

    calm, chaotic = run_once(benchmark, run_both)
    with capsys.disabled():
        print()
        print(f"  calm    : {calm.summary()}")
        print(
            f"  chaotic : {chaotic.summary()}  "
            f"nodes_killed={chaotic.extras['chaos_nodes_killed']:.0f} "
            f"requeued={chaotic.tasks_requeued}"
        )

    assert calm.tasks_completed == chaotic.tasks_completed == 76
    assert chaotic.extras["chaos_nodes_killed"] >= 1
    assert chaotic.tasks_requeued >= 1  # crashes really did hit workers
    # Bounded degradation: churn costs time, but not a collapse.
    assert chaotic.makespan_s < 3.0 * calm.makespan_s
