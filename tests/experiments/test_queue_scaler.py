"""Tests for the KEDA-style queue-length baseline."""

from __future__ import annotations

import pytest

from repro.baselines.queue_scaler import QueueLengthAutoscaler, QueueScalerConfig
from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.workloads.iobound import iobound_parallel
from repro.workloads.synthetic import uniform_bag


def stack(seed=0, max_nodes=8):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=max_nodes,
            node_reservation_mean_s=80.0,
            node_reservation_std_s=0.0,
        ),
        seed=seed,
    )


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            QueueScalerConfig(tasks_per_replica=0)
        with pytest.raises(ValueError):
            QueueScalerConfig(min_replicas=5, max_replicas=2)
        with pytest.raises(ValueError):
            QueueScalerConfig(polling_interval_s=0)
        with pytest.raises(ValueError):
            QueueScalerConfig(cooldown_s=-1)


class TestControlLaw:
    class StubMaster:
        def __init__(self, backlog):
            self._backlog = backlog

        def stats(self):
            class S:
                pass

            s = S()
            s.backlog = self._backlog
            return s

    class StubTarget:
        def __init__(self, replicas=1):
            self.replicas = replicas

        def current_count(self):
            return self.replicas

        def scale_to(self, n):
            self.replicas = n

    def test_desired_is_backlog_over_target(self, engine):
        master = self.StubMaster(backlog=9)
        target = self.StubTarget(1)
        QueueLengthAutoscaler(
            engine, master, target, QueueScalerConfig(tasks_per_replica=3.0, max_replicas=10)
        )
        engine.run(until=1.0)
        assert target.replicas == 3

    def test_clamped_to_max(self, engine):
        master = self.StubMaster(backlog=1000)
        target = self.StubTarget(1)
        QueueLengthAutoscaler(
            engine, master, target, QueueScalerConfig(max_replicas=5)
        )
        engine.run(until=1.0)
        assert target.replicas == 5

    def test_cooldown_delays_shrink(self, engine):
        master = self.StubMaster(backlog=30)
        target = self.StubTarget(1)
        QueueLengthAutoscaler(
            engine,
            master,
            target,
            QueueScalerConfig(tasks_per_replica=3.0, max_replicas=10, cooldown_s=120.0,
                              polling_interval_s=30.0),
        )
        engine.run(until=1.0)
        assert target.replicas == 10
        master._backlog = 0
        engine.run(until=100.0)
        assert target.replicas == 10  # still inside the cooldown
        engine.run(until=300.0)
        assert target.replicas == 1

    def test_dip_of_exactly_cooldown_never_shrinks(self, engine):
        """Boundary case: the backlog dips right after a poll and recovers
        exactly ``cooldown_s`` later. The last high recommendation sits
        precisely *at* the window cutoff on the final low poll — the
        eviction comparison is strict, so it must still count and the
        pool must never shrink (a dip must exceed the cooldown, not
        merely reach it)."""

        class RecordingTarget(self.StubTarget):
            def __init__(self, replicas=1):
                super().__init__(replicas)
                self.history = []

            def scale_to(self, n):
                super().scale_to(n)
                self.history.append(n)

        master = self.StubMaster(backlog=30)
        target = RecordingTarget(1)
        QueueLengthAutoscaler(
            engine,
            master,
            target,
            QueueScalerConfig(tasks_per_replica=3.0, max_replicas=10,
                              cooldown_s=120.0, polling_interval_s=30.0),
        )
        # High recommendation recorded at the t=0 poll.
        engine.run(until=1.0)
        assert target.replicas == 10
        # Dip: polls at 30/60/90/120 all see an empty queue. At t=120 the
        # t=0 high sample is exactly cooldown_s old — still in-window.
        master._backlog = 0
        engine.run(until=121.0)
        assert target.replicas == 10
        # Recovered before the t=150 poll: the window never went all-low.
        master._backlog = 30
        engine.run(until=300.0)
        assert target.replicas == 10
        assert all(n == 10 for n in target.history)
    def test_completes_workload(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(24, execute_s=40.0, declared=True),
                policy="queue",
                stack=stack(),
                options={"tasks_per_replica": 3.0},
            )
        )
        assert r.tasks_completed == 24
        assert r.name == "KEDA-queue"

    def test_scales_on_io_bound_unlike_hpa(self):
        """The queue scaler has no CPU blind spot: it grows the pool for
        I/O-bound backlogs where HPA stays frozen."""
        r = run_experiment(
            ExperimentSpec(
                iobound_parallel(30, execute_s=60.0, declared=True),
                policy="queue",
                stack=stack(),
                options={"tasks_per_replica": 3.0},
            )
        )
        t0, t1 = r.accountant.window()
        assert r.series("workers_connected").maximum(t0, t1) > 2.0
        assert r.tasks_completed == 30

    def test_hta_still_wastes_less_on_unknown_footprints(self):
        """With undeclared resources the queue scaler counts *tasks* while
        HTA estimates *resources* — HTA packs tighter."""
        wl = lambda: uniform_bag(30, execute_s=60.0, declared=False)
        keda = run_experiment(
            ExperimentSpec(
                wl(), policy="queue", stack=stack(), options={"tasks_per_replica": 1.0}
            )
        )
        hta = run_experiment(ExperimentSpec(wl(), policy="hta", stack=stack()))
        assert keda.tasks_completed == hta.tasks_completed == 30
        assert (
            hta.accounting.accumulated_waste_core_s
            <= keda.accounting.accumulated_waste_core_s
        )
