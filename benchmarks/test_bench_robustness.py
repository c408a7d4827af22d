"""Bench: HTA under infrastructure churn (beyond the paper).

Pods are "disposable object[s] which might fail or restart" (§II-C).
This bench runs the multistage workflow while a chaos schedule crashes a
random worker node every ~10 simulated minutes, and verifies the whole
stack converges: tasks requeue, the cloud controller heals the pool, HTA
re-provisions, and the workflow completes with bounded overhead.
"""

from __future__ import annotations

from benchmarks.conftest import run_once

from repro.cluster.chaos import ChaosInjector
from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
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

    # Plug chaos into the runner via a monkey-level hook: we re-create
    # the private stack the runner builds, so instead run through the
    # public API and inject chaos with a wrapper workload? Simpler: use
    # the runner and attach chaos by patching the drive loop is fragile —
    # instead assemble manually for the chaotic variant.
    if chaos_interval_s is None:
        return run_experiment(
            ExperimentSpec(workload, policy="hta", stack=cfg, name="calm")
        )
    return _run_chaotic(cfg, workload, chaos_interval_s)


def _run_chaotic(cfg, workload, interval_s):
    from repro.cluster.images import ContainerImage
    from repro.experiments.runner import _Stack, _drive, _collect, _make_accountant
    from repro.hta.inittime import InitTimeTracker
    from repro.hta.operator import HtaConfig, HtaOperator
    from repro.hta.provisioner import WorkerProvisioner
    from repro.makeflow.manager import WorkflowManager

    stack = _Stack(cfg, estimator_kind="monitor")
    provisioner = WorkerProvisioner(
        stack.engine,
        stack.cluster.api,
        stack.runtime,
        image=cfg.image,
        worker_request=stack.worker_request,
    )
    tracker = InitTimeTracker(stack.cluster.api, prior_s=160.0, selector_label="wq-worker")
    operator = HtaOperator(
        stack.engine,
        stack.master,
        provisioner,
        tracker,
        HtaConfig(initial_workers=3, max_workers=10),
        stack.recorder,
    )
    chaos = ChaosInjector(stack.engine, stack.cluster.api, stack.rng)
    chaos.schedule_node_failures(interval_s, start_after=300.0)
    manager = WorkflowManager(stack.engine, workload, operator, recorder=stack.recorder)
    manager.done_signal.add_waiter(lambda _m: operator.notify_no_more_jobs())
    accountant = _make_accountant(stack, shortage_extra=operator.held_cores)
    operator.start()
    _drive(stack, manager, accountant)
    chaos.stop()
    result = _collect(
        "chaotic",
        stack,
        manager,
        accountant,
        workload,
        nodes_killed=float(chaos.nodes_killed),
    )
    return result


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
            f"nodes_killed={chaotic.extras['nodes_killed']:.0f} "
            f"requeued={chaotic.tasks_requeued}"
        )

    assert calm.tasks_completed == chaotic.tasks_completed == 76
    assert chaotic.extras["nodes_killed"] >= 1
    assert chaotic.tasks_requeued >= 1  # crashes really did hit workers
    # Bounded degradation: churn costs time, but not a collapse.
    assert chaotic.makespan_s < 3.0 * calm.makespan_s
