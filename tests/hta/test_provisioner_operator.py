"""Tests for the provisioner and the full HTA operator on a live stack."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster.api import KubeApiServer
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.resources import ResourceVector
from repro.hta.estimator import EstimatorConfig
from repro.hta.inittime import InitTimeTracker
from repro.hta.operator import HtaConfig, HtaOperator
from repro.hta.provisioner import WorkerProvisioner
from repro.makeflow.dag import WorkflowGraph
from repro.makeflow.manager import WorkflowManager
from repro.sim.rng import RngRegistry
from repro.telemetry.events import Tracer
from repro.wq.estimator import MonitorEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.monitor import ResourceMonitor
from repro.wq.runtime import DrainIndex, WorkerPodRuntime
from repro.wq.task import FileSpec, Task
from repro.wq.worker import WorkerState

FOOT = ResourceVector(1, 2500, 2000)


@pytest.fixture
def stack(engine):
    cluster = Cluster(
        engine,
        RngRegistry(11),
        ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=8,
            node_reservation_mean_s=100.0,
            node_reservation_std_s=0.0,
            registry_jitter_cv=0.0,
        ),
    )
    link = Link(engine, 500.0)
    monitor = ResourceMonitor()
    master = Master(engine, link, estimator=MonitorEstimator(monitor), monitor=monitor)
    runtime = WorkerPodRuntime(engine, cluster.api, cluster.kubelets, master)
    provisioner = WorkerProvisioner(
        engine,
        cluster.api,
        runtime,
        image=ContainerImage("wq-worker", 100.0),
        worker_request=N1_STANDARD_4_RESERVED.allocatable,
    )
    tracker = InitTimeTracker(cluster.api, prior_s=110.0, selector_label="wq-worker")
    return cluster, master, runtime, provisioner, tracker


def bag(n, category="c", execute_s=30.0, declared=False):
    return [
        Task(
            category,
            execute_s=execute_s,
            footprint=FOOT,
            declared=FOOT if declared else None,
            inputs=(FileSpec(f"{category}.in.{i}", 1.0),),
            outputs=(FileSpec(f"{category}.out.{i}", 1.0),),
        )
        for i in range(n)
    ]


class TestProvisioner:
    def test_create_workers_makes_pods(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        pods = provisioner.create_workers(2)
        assert len(pods) == 2
        assert all(p.meta.labels["app"] == "wq-worker" for p in pods)
        engine.run(until=30.0)
        assert master.stats().workers_connected == 2

    def test_pending_pods_listed(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        provisioner.create_workers(4)  # only 2 nodes exist
        engine.run(until=20.0)
        assert len(provisioner.pending_pods()) == 2
        assert len(provisioner.running_pods()) == 2

    def test_drain_workers_prefers_idle(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        provisioner.create_workers(2)
        engine.run(until=30.0)
        master.submit_many(bag(1, declared=True, execute_s=500.0))
        engine.run(until=40.0)
        drained = provisioner.drain_workers(1)
        assert len(drained) == 1
        assert not drained[0].runs  # the idle one, not the busy one

    def test_drain_order_on_tied_keys_is_the_stable_sort(self, engine):
        class StubWorker:
            def __init__(self, name, runs, connected_time, state=WorkerState.READY):
                self.name, self.runs, self.state = name, [None] * runs, state
                self.connected_time = connected_time
                self.drained = False

            def drain(self):
                self.drained = True

        # (len(runs), -connected_time) ties: a/c/e (idle, connected at 5),
        # b/f (one run, connected at 5) and d/g (idle, never connected,
        # which keys like connected at 0); h is already draining.
        workers = [
            StubWorker("a", 0, 5.0), StubWorker("b", 1, 5.0), StubWorker("c", 0, 5.0),
            StubWorker("d", 0, None), StubWorker("e", 0, 5.0), StubWorker("f", 1, 5.0),
            StubWorker("g", 0, 0.0), StubWorker("h", 0, 9.0, WorkerState.DRAINING),
        ]

        runtime = SimpleNamespace(drain_index=DrainIndex())
        for w in workers:
            runtime.drain_index.add(w)

        provisioner = WorkerProvisioner(
            engine, KubeApiServer(engine), runtime,
            image=ContainerImage("wq-worker", 100.0), worker_request=FOOT,
        )
        key = lambda w: (len(w.runs), -(w.connected_time or 0.0))  # noqa: E731
        live = [w for w in workers if w.state is not WorkerState.DRAINING]
        for count in range(1, len(live) + 1):
            expected = sorted(live, key=key)[:count]
            for w in workers:
                w.drained = False
            drained = provisioner.drain_workers(count)
            assert [w.name for w in drained] == [w.name for w in expected]
            assert [w.name for w in workers if w.drained] == sorted(
                w.name for w in expected
            )
        assert [w.name for w in sorted(live, key=key)] == list("acedgbf")

    def test_drained_pod_reaped(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        provisioner.create_workers(1)
        engine.run(until=30.0)
        provisioner.drain_workers(1)
        engine.run(until=60.0)
        assert provisioner.my_pods() == []  # Succeeded pod deleted
        assert provisioner.pods_reaped == 1

    def test_cancel_pending_removes_newest(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        provisioner.create_workers(4)
        engine.run(until=20.0)
        removed = provisioner.cancel_pending(10)
        assert removed == 2
        assert len(provisioner.pending_pods()) == 0

    def test_drain_all(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        provisioner.create_workers(2)
        engine.run(until=30.0)
        provisioner.drain_all()
        engine.run(until=60.0)
        assert master.stats().workers_connected == 0


class TestOperator:
    def make_operator(self, engine, stack, **cfg):
        cluster, master, runtime, provisioner, tracker = stack
        defaults = dict(
            initial_workers=2,
            max_workers=8,
            min_workers=1,
            first_cycle_s=2.0,
            estimator=EstimatorConfig(default_cycle_s=10.0, min_cycle_s=2.0),
        )
        defaults.update(cfg)
        return HtaOperator(engine, master, provisioner, tracker, HtaConfig(**defaults))

    def run_workflow(self, engine, stack, operator, tasks, until=5000.0):
        graph = WorkflowGraph(tasks)
        manager = WorkflowManager(engine, graph, operator)
        manager.done_signal.add_waiter(lambda _m: operator.notify_no_more_jobs())
        operator.start()
        manager.start()
        engine.run(until=until)
        return manager

    def test_warmup_creates_initial_workers(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        op.start()
        engine.run(until=30.0)
        assert master.stats().workers_connected == 2

    def test_probe_gating_holds_unknown_category(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        op.start()
        for t in bag(10):
            op.submit(t)
        assert master.stats().waiting + master.stats().running <= 1
        assert op.held_count == 9
        assert op.held_cores() == pytest.approx(9.0)

    def test_declared_tasks_pass_through(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        op.start()
        for t in bag(5, declared=True):
            op.submit(t)
        assert op.held_count == 0
        assert master.stats().backlog == 5

    def test_probe_completion_flushes_held(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        op.start()
        for t in bag(10, execute_s=20.0):
            op.submit(t)
        engine.run(until=120.0)
        assert op.held_count == 0
        assert master.monitor.has_estimate("c")

    def test_workflow_runs_to_completion_and_cleans_up(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        manager = self.run_workflow(engine, stack, op, bag(12, execute_s=20.0))
        assert manager.done
        assert master.all_done
        # Clean-up: all workers drained, pods reaped.
        assert master.stats().workers_connected == 0
        assert provisioner.live_pods() == []
        assert op.done_signal.latched

    def test_scale_up_beyond_initial_pool(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        manager = self.run_workflow(
            engine, stack, op, bag(40, execute_s=100.0), until=3000.0
        )
        assert manager.done
        assert provisioner.pods_created > 2  # grew past the initial pool

    def test_decision_record_shows_the_plans_fleet_inputs(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        tracer = Tracer(lambda: engine.now)
        op = HtaOperator(
            engine,
            master,
            provisioner,
            tracker,
            HtaConfig(
                initial_workers=2,
                max_workers=8,
                min_workers=1,
                first_cycle_s=2.0,
                estimator=EstimatorConfig(default_cycle_s=10.0, min_cycle_s=2.0),
            ),
            tracer=tracer,
        )
        inputs = []
        estimate = op.estimator.estimate

        def spy(**kwargs):
            stats = master.stats()
            inputs.append((
                kwargs["active_workers"],
                kwargs["idle_workers"],
                len(kwargs["pending"]),
                stats.waiting,
                stats.running,
            ))
            return estimate(**kwargs)

        op.estimator.estimate = spy
        manager = self.run_workflow(
            engine, stack, op, bag(40, execute_s=100.0), until=3000.0
        )
        assert manager.done
        normal = [
            e.attrs for e in tracer.select("hta", "decision")
            if e.attrs["mode"] == "normal"
        ]
        assert [
            (a["live_workers"], a["idle_workers"], a["pending_pods"], a["waiting"],
             a["running"])
            for a in normal
        ] == inputs
        # The run drained workers and created pods, so a record read
        # after _apply would have shown a smaller pool than the plan
        # sized, or counted the pods it created as pending inputs.
        assert any(a["drained"] for a in normal)
        assert any(a["created"] for a in normal)

    def test_multi_category_probes_run_concurrently(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        op.start()
        for t in bag(5, category="a") + bag(5, category="b"):
            op.submit(t)
        stats = master.stats()
        assert stats.backlog == 2  # one probe per category
        assert op.held_count == 8

    def test_plan_once_has_no_side_effects(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        op.start()
        engine.run(until=30.0)
        before = provisioner.pods_created
        op.plan_once()
        assert provisioner.pods_created == before

    def test_notify_without_work_cleans_up_immediately(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        op.start()
        engine.run(until=30.0)
        op.notify_no_more_jobs()
        engine.run(until=60.0)
        assert master.stats().workers_connected == 0

    def test_escalated_allocation_enters_planning(self, engine, stack):
        """A resource-exhaustion escalation recorded against the category
        must show up in the sizes Algorithm 1 plans with — even above a
        task's declared request."""
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        task = bag(1, declared=True)[0]
        assert op._estimate_resources(task) == FOOT
        escalated = FOOT.scale(1.5)
        master.monitor.observe_exhaustion("c", escalated)
        estimate = op._estimate_resources(task)
        assert escalated.fits_in(estimate)

    def test_escalation_beyond_worker_falls_back_to_declared(self, engine, stack):
        cluster, master, runtime, provisioner, tracker = stack
        op = self.make_operator(engine, stack)
        task = bag(1, declared=True)[0]
        # An escalation no worker can hold must not poison the plan.
        master.monitor.observe_exhaustion("c", provisioner.worker_request.scale(2.0))
        assert op._estimate_resources(task) == FOOT
