"""Unit tests for the kubelet: image pulls, caching, container start/stop."""

from __future__ import annotations

import pytest

from repro.cluster.api import KubeApiServer
from repro.cluster.images import ContainerImage, ImageRegistry
from repro.cluster.kubelet import Kubelet, KubeletManager
from repro.cluster.node import N1_STANDARD_4, Node
from repro.cluster.pod import Pod, PodPhase, PodSpec, REASON_PULLED, REASON_PULLING
from repro.cluster.resources import ResourceVector
from repro.sim.rng import RngRegistry


@pytest.fixture
def api(engine):
    return KubeApiServer(engine)


@pytest.fixture
def registry():
    # 100 MB/s, 2 s overhead, no jitter → a 100 MB image pulls in 3 s.
    return ImageRegistry(RngRegistry(1), pull_bandwidth_mbps=100.0, jitter_cv=0.0)


@pytest.fixture
def node(api):
    n = Node("n1", N1_STANDARD_4)
    n.ready = True
    api.create(n)
    return n


def schedule_pod(api, node, name="p", image_mb=100.0):
    pod = Pod(name, PodSpec(ContainerImage("img", image_mb), ResourceVector(1, 512, 512)))
    api.create(pod)
    pod.mark_scheduled(0.0, node)
    node.bind(pod)
    api.mark_modified(pod)
    return pod


class TestImagePull:
    def test_uncached_image_pull_then_start(self, engine, api, registry, node):
        Kubelet(engine, api, node, registry)
        pod = schedule_pod(api, node)
        engine.run(until=10.0)
        assert pod.phase is PodPhase.RUNNING
        assert pod.had_event(REASON_PULLING)
        assert pod.had_event(REASON_PULLED)
        # pull 3s + start 1s
        assert pod.started_time == pytest.approx(4.0, abs=0.2)

    def test_image_cached_after_pull(self, engine, api, registry, node):
        Kubelet(engine, api, node, registry)
        schedule_pod(api, node, "p1")
        engine.run(until=10.0)
        assert "img" in node.cached_images

    def test_cached_image_starts_fast(self, engine, api, registry, node):
        Kubelet(engine, api, node, registry)
        schedule_pod(api, node, "p1")
        engine.run(until=10.0)
        pod2 = schedule_pod(api, node, "p2")
        engine.run(until=20.0)
        assert not pod2.had_event(REASON_PULLING)
        assert pod2.started_time == pytest.approx(10.0 + Kubelet.CONTAINER_START_LATENCY, abs=0.2)

    def test_pull_duration_scales_with_image_size(self, engine, api, registry, node):
        Kubelet(engine, api, node, registry)
        pod = schedule_pod(api, node, "big", image_mb=1000.0)
        engine.run(until=30.0)
        assert pod.started_time == pytest.approx(13.0, abs=0.5)  # 2 + 10 + 1

    def test_deleting_pod_mid_pull_aborts_start(self, engine, api, registry, node):
        Kubelet(engine, api, node, registry)
        pod = schedule_pod(api, node)
        engine.run(until=1.0)  # mid-pull
        api.delete("Pod", pod.name)
        engine.run(until=30.0)
        assert pod.phase is PodPhase.FAILED  # never Running


class TestStop:
    def test_stop_container_succeeds_pod(self, engine, api, registry, node):
        kubelet = Kubelet(engine, api, node, registry)
        pod = schedule_pod(api, node)
        engine.run(until=10.0)
        kubelet.stop_container(pod)
        assert pod.phase is PodPhase.SUCCEEDED

    def test_stop_container_failed_flag(self, engine, api, registry, node):
        kubelet = Kubelet(engine, api, node, registry)
        pod = schedule_pod(api, node)
        engine.run(until=10.0)
        kubelet.stop_container(pod, succeeded=False)
        assert pod.phase is PodPhase.FAILED

    def test_stop_foreign_pod_rejected(self, engine, api, registry, node):
        kubelet = Kubelet(engine, api, node, registry)
        other_node = Node("n2")
        other_node.ready = True
        api.create(other_node)
        pod = schedule_pod(api, other_node, "other")
        with pytest.raises(RuntimeError):
            kubelet.stop_container(pod)

    def test_stop_terminal_pod_is_noop(self, engine, api, registry, node):
        kubelet = Kubelet(engine, api, node, registry)
        pod = schedule_pod(api, node)
        engine.run(until=10.0)
        kubelet.stop_container(pod)
        kubelet.stop_container(pod, succeeded=False)
        assert pod.phase is PodPhase.SUCCEEDED


class TestKubeletManager:
    def test_kubelet_created_per_node(self, engine, api, registry):
        manager = KubeletManager(engine, api, registry)
        n1 = Node("n1")
        n1.ready = True
        api.create(n1)
        engine.run(until=1.0)
        assert manager.for_node(n1) is not None

    def test_kubelet_removed_with_node(self, engine, api, registry):
        manager = KubeletManager(engine, api, registry)
        n1 = Node("n1")
        n1.ready = True
        api.create(n1)
        engine.run(until=1.0)
        api.delete("Node", "n1")
        engine.run(until=2.0)
        assert manager.for_node(n1) is None

    def test_keyed_pod_watches_track_live_nodes(self, engine, api, registry):
        KubeletManager(engine, api, registry)
        nodes = []
        for i in range(5):
            node = Node(f"n{i}", N1_STANDARD_4)
            node.ready = True
            api.create(node)
            nodes.append(node)
        engine.run(until=1.0)
        assert sorted(api._pod_node_watchers) == [n.name for n in nodes]
        before = api.watcher_count("Pod")
        for node in nodes[1::2]:
            api.delete("Node", node.name)
        engine.run(until=2.0)
        assert sorted(api._pod_node_watchers) == ["n0", "n2", "n4"]
        assert api.watcher_count("Pod") == before - 2
        # A node re-created under a deleted one's name watches again.
        again = Node("n1", N1_STANDARD_4)
        again.ready = True
        api.create(again)
        engine.run(until=3.0)
        assert sorted(api._pod_node_watchers) == ["n0", "n1", "n2", "n4"]

    def test_deleted_node_cancels_its_pending_starts(self, engine, api, registry, node):
        manager = KubeletManager(engine, api, registry)
        engine.run(until=0.5)
        pod = schedule_pod(api, node)
        engine.run(until=1.0)  # pulling: the start is pending
        assert manager.for_node(node)._pending_starts
        api.delete("Node", node.name)
        engine.run(until=10.0)
        assert pod.phase is PodPhase.PENDING  # never started on a gone node

    def test_for_pod_resolves_through_node(self, engine, api, registry):
        manager = KubeletManager(engine, api, registry)
        n1 = Node("n1", N1_STANDARD_4)
        n1.ready = True
        api.create(n1)
        engine.run(until=1.0)
        pod = schedule_pod(api, n1)
        assert manager.for_pod(pod) is manager.for_node(n1)

    def test_for_unbound_pod_is_none(self, engine, api, registry):
        manager = KubeletManager(engine, api, registry)
        pod = Pod("p", PodSpec(ContainerImage("i", 1), ResourceVector(1, 1, 1)))
        assert manager.for_pod(pod) is None
