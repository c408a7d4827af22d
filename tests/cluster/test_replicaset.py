"""Unit tests for the worker replica controller."""

from __future__ import annotations

import pytest

from repro.cluster.api import KubeApiServer
from repro.cluster.images import ContainerImage
from repro.cluster.node import Node
from repro.cluster.pod import PodSpec
from repro.cluster.replicaset import WorkerReplicaSet
from repro.cluster.resources import ResourceVector


@pytest.fixture
def api(engine):
    return KubeApiServer(engine)


def spec_factory(name: str) -> PodSpec:
    return PodSpec(ContainerImage("img", 10), ResourceVector(1, 512, 512), labels={"app": "w"})


class TestScaling:
    def test_initial_replicas_created(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory, replicas=3)
        assert rs.current_count() == 3
        assert len(api.pods({"replicaset": "ws"})) == 3

    def test_scale_up_adds_pods(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory, replicas=2)
        rs.scale_to(5)
        assert rs.current_count() == 5

    def test_scale_down_deletes_newest_first(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory)
        engine.call_in(1.0, rs.scale_to, 2)
        engine.call_in(2.0, rs.scale_to, 3)
        engine.run(until=3.0)
        rs.scale_to(2)
        remaining = {p.name for p in rs.pods()}
        assert remaining == {"ws-0001", "ws-0002"}

    def test_scale_down_deletes_pending_then_newest(self, engine, api):
        """Kubernetes' victim order: a not-yet-ready pod goes before any
        Running one, then the newest Running pods."""
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory)
        for at, count in ((1.0, 1), (2.0, 2), (3.0, 3)):
            engine.call_at(at, rs.scale_to, count)
        engine.run(until=3.0)
        node = Node("n1")
        node.ready = True
        api.create(node)
        # ws-0002 and ws-0003 run; the oldest, ws-0001, is still Pending.
        for name in ("ws-0002", "ws-0003"):
            pod = api.get("Pod", name)
            pod.mark_scheduled(engine.now, node)
            node.bind(pod)
            pod.mark_running(engine.now)
        rs.scale_to(1)
        assert {p.name for p in rs.pods()} == {"ws-0002"}

    def test_scale_to_zero(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory, replicas=3)
        rs.scale_to(0)
        engine.run(until=1.0)
        assert rs.current_count() == 0

    def test_negative_replicas_rejected(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory)
        with pytest.raises(ValueError):
            rs.scale_to(-1)

    def test_scale_returns_delta(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory)
        assert rs.scale_to(4) == 4
        assert rs.scale_to(1) == -3

    def test_labels_carry_replicaset_and_template(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory, replicas=1)
        pod = rs.pods()[0]
        assert pod.meta.labels["replicaset"] == "ws"
        assert pod.meta.labels["app"] == "w"


class TestReconciliation:
    def test_terminal_pod_replaced(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory, replicas=2)
        victim = rs.pods()[0]
        victim.mark_finished(0.0, succeeded=False)
        api.mark_modified(victim)
        engine.run(until=1.0)
        assert rs.current_count() == 2
        assert rs.pods_created == 3

    def test_externally_deleted_pod_replaced(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory, replicas=2)
        api.delete("Pod", rs.pods()[0].name)
        engine.run(until=1.0)
        assert rs.current_count() == 2

    def test_foreign_pods_ignored(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory, replicas=1)
        other = WorkerReplicaSet(engine, api, "other", spec_factory, replicas=1)
        api.delete("Pod", other.pods()[0].name)
        engine.run(until=1.0)
        assert rs.pods_created == 1  # untouched by the other set's churn

    def test_ready_count_tracks_running(self, engine, api):
        rs = WorkerReplicaSet(engine, api, "ws", spec_factory, replicas=2)
        assert rs.ready_count() == 0  # still pending, no scheduler here
