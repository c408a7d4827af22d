"""Failure injection: killed pods, mid-run disruption, requeue correctness."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from repro.sim.rng import RngRegistry
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.runtime import WorkerPodRuntime
from repro.wq.task import Task, TaskState
from repro.hta.provisioner import WorkerProvisioner

FOOT = ResourceVector(1, 1024, 512)


@pytest.fixture
def stack(engine):
    cluster = Cluster(
        engine,
        RngRegistry(21),
        ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=3,
            max_nodes=6,
            node_reservation_mean_s=80.0,
            node_reservation_std_s=0.0,
            registry_jitter_cv=0.0,
        ),
    )
    link = Link(engine, 500.0)
    master = Master(engine, link, estimator=DeclaredResourceEstimator())
    runtime = WorkerPodRuntime(engine, cluster.api, cluster.kubelets, master)
    provisioner = WorkerProvisioner(
        engine,
        cluster.api,
        runtime,
        image=ContainerImage("wq-worker", 100.0),
        worker_request=N1_STANDARD_4_RESERVED.allocatable,
    )
    return cluster, master, runtime, provisioner


def bag(n, execute_s=60.0):
    return [
        Task("c", execute_s=execute_s, footprint=FOOT, declared=FOOT) for _ in range(n)
    ]


class TestPodKills:
    def test_all_tasks_complete_despite_one_kill(self, engine, stack):
        cluster, master, runtime, provisioner = stack
        provisioner.create_workers(3)
        tasks = bag(12, execute_s=50.0)
        master.submit_many(tasks)
        engine.run(until=30.0)
        victim = provisioner.running_pods()[0]
        cluster.api.delete("Pod", victim.name)
        provisioner.create_workers(1)  # replacement
        engine.run(until=2000.0)
        assert all(t.state is TaskState.DONE for t in tasks)
        assert master.tasks_requeued >= 1

    def test_no_task_runs_twice_concurrently(self, engine, stack):
        cluster, master, runtime, provisioner = stack
        provisioner.create_workers(2)
        tasks = bag(6, execute_s=100.0)
        master.submit_many(tasks)
        engine.run(until=30.0)
        victim = provisioner.running_pods()[0]
        cluster.api.delete("Pod", victim.name)
        engine.run(until=35.0)
        # Requeued tasks must be WAITING, not tracked as running anywhere.
        running_ids = {t.id for t in master.running_tasks()}
        waiting_ids = {t.id for t in master.waiting_tasks()}
        assert not (running_ids & waiting_ids)

    def test_attempts_counter_increments(self, engine, stack):
        cluster, master, runtime, provisioner = stack
        provisioner.create_workers(1)
        tasks = bag(3, execute_s=200.0)
        master.submit_many(tasks)
        engine.run(until=30.0)
        victim = provisioner.running_pods()[0]
        cluster.api.delete("Pod", victim.name)
        engine.run(until=31.0)
        assert any(t.attempts == 1 for t in tasks)

    def test_repeated_kills_still_converge(self, engine, stack):
        cluster, master, runtime, provisioner = stack
        provisioner.create_workers(2)
        tasks = bag(8, execute_s=40.0)
        master.submit_many(tasks)
        for delay in (20.0, 120.0):
            def kill():
                pods = provisioner.running_pods()
                if pods:
                    cluster.api.delete("Pod", pods[0].name)
                provisioner.create_workers(1)

            engine.call_in(delay, kill)
        engine.run(until=4000.0)
        assert all(t.state is TaskState.DONE for t in tasks)


class TestDrainUnderLoad:
    def test_drain_never_loses_tasks(self, engine, stack):
        cluster, master, runtime, provisioner = stack
        provisioner.create_workers(3)
        tasks = bag(9, execute_s=60.0)
        master.submit_many(tasks)
        engine.run(until=30.0)
        provisioner.drain_workers(2)
        provisioner.create_workers(2)
        engine.run(until=3000.0)
        assert all(t.state is TaskState.DONE for t in tasks)
        assert master.tasks_requeued == 0  # drain is non-disruptive

    def test_drained_pods_reach_succeeded_not_failed(self, engine, stack):
        cluster, master, runtime, provisioner = stack
        pods = provisioner.create_workers(2)
        tasks = bag(4, execute_s=30.0)
        master.submit_many(tasks)
        engine.run(until=20.0)
        provisioner.drain_all()
        engine.run(until=300.0)
        assert all(p.phase in (PodPhase.SUCCEEDED, PodPhase.FAILED) for p in pods)
        assert all(
            p.phase is PodPhase.SUCCEEDED for p in pods if p.started_time is not None
        )
