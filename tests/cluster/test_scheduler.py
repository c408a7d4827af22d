"""Unit tests for the kube-scheduler control loop."""

from __future__ import annotations

import pytest

from repro.cluster.api import KubeApiServer
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4, Node
from repro.cluster.pod import Pod, PodSpec, REASON_FAILED_SCHEDULING
from repro.cluster.resources import ResourceVector
from repro.cluster.scheduler import KubeScheduler


@pytest.fixture
def api(engine):
    return KubeApiServer(engine)


def add_node(api, name, ready=True):
    node = Node(name, N1_STANDARD_4)
    node.ready = ready
    api.create(node)
    return node


def make_pod(name, cores=1.0):
    return Pod(name, PodSpec(ContainerImage("img", 10), ResourceVector(cores, 512, 512)))


class TestBinding:
    def test_pending_pod_bound_to_fitting_node(self, engine, api):
        scheduler = KubeScheduler(engine, api)
        node = add_node(api, "n1")
        pod = make_pod("p1")
        api.create(pod)
        engine.run(until=2.0)
        assert pod.node is node
        assert pod in node.pods
        assert scheduler.binds == 1

    def test_no_node_emits_insufficient_resource_event(self, engine, api):
        KubeScheduler(engine, api)
        pod = make_pod("p1")
        api.create(pod)
        engine.run(until=2.0)
        ev = pod.last_event(REASON_FAILED_SCHEDULING)
        assert ev is not None
        assert "Insufficient Resource" in ev.message

    def test_failed_scheduling_event_not_repeated(self, engine, api):
        KubeScheduler(engine, api, sync_period=1.0)
        pod = make_pod("p1")
        api.create(pod)
        engine.run(until=10.0)
        events = [e for e in pod.events if e.reason == REASON_FAILED_SCHEDULING]
        assert len(events) == 1

    def test_pod_bound_when_node_becomes_ready_later(self, engine, api):
        KubeScheduler(engine, api)
        pod = make_pod("p1")
        api.create(pod)
        engine.run(until=5.0)
        assert pod.node is None
        engine.call_in(1.0, add_node, api, "n1")
        engine.run(until=10.0)
        assert pod.node is not None

    def test_oversized_pod_never_bound(self, engine, api):
        KubeScheduler(engine, api)
        add_node(api, "n1")
        pod = make_pod("huge", cores=16)
        api.create(pod)
        engine.run(until=5.0)
        assert pod.node is None

    def test_capacity_respected_across_pods(self, engine, api):
        KubeScheduler(engine, api)
        add_node(api, "n1")
        pods = [make_pod(f"p{i}", cores=1) for i in range(6)]
        for p in pods:
            api.create(p)
        engine.run(until=5.0)
        bound = [p for p in pods if p.node is not None]
        assert len(bound) == 4  # 4-core node


class TestPassOrder:
    def test_same_instant_pods_bound_in_list_order(self, engine, api):
        # Created in the order w-9, w-10 at one instant; the list order is
        # by name ("w-10" < "w-9"), so w-10 takes the only seat and w-9
        # records the FailedScheduling event.
        KubeScheduler(engine, api)
        add_node(api, "n1")
        late, early = make_pod("w-9", cores=4), make_pod("w-10", cores=4)
        api.create(late)
        api.create(early)
        engine.run(until=2.0)
        assert early.node is not None and late.node is None
        assert late.last_event(REASON_FAILED_SCHEDULING) is not None

    def test_freed_capacity_reused_next_pass(self, engine, api):
        KubeScheduler(engine, api)
        node = add_node(api, "n1")
        first, second = make_pod("a", cores=4), make_pod("b", cores=4)
        api.create(first)
        engine.run(until=1.0)
        api.create(second)
        engine.run(until=3.0)
        assert second.node is None
        first.mark_running(engine.now)
        first.mark_finished(engine.now)
        api.mark_modified(first)
        engine.run(until=5.0)
        assert second.node is node


class TestStrategies:
    def test_least_requested_spreads(self, engine, api):
        KubeScheduler(engine, api)
        add_node(api, "n1")
        add_node(api, "n2")
        pods = [make_pod(f"p{i}") for i in range(2)]
        for p in pods:
            api.create(p)
        engine.run(until=5.0)
        assert {p.node.name for p in pods} == {"n1", "n2"}

    def test_equal_free_cores_tie_broken_by_name(self, engine, api):
        KubeScheduler(engine, api)
        add_node(api, "n2")
        add_node(api, "n1")
        pod = make_pod("p")
        api.create(pod)
        engine.run(until=5.0)
        assert pod.node.name == "n2"

    def test_float_drift_absorbed_like_fits_in(self, engine, api):
        # Three 0.9-core pods leave 1.2999999999999998 free cores: a
        # 1.3-core pod fits only through fits_in's epsilon, and the
        # index's cores cutoff must not drop the node first.
        KubeScheduler(engine, api)
        node = add_node(api, "n1")
        for name in ["a", "b", "c"]:
            api.create(make_pod(name, cores=0.9))
        engine.run(until=1.0)
        assert node.free().cores < 1.3
        big = make_pod("big", cores=1.3)
        api.create(big)
        engine.run(until=engine.now + 2.0)
        assert big.node is node

    def test_stop_halts_loop(self, engine, api):
        scheduler = KubeScheduler(engine, api)
        scheduler.stop()
        add_node(api, "n1")
        # A pod created after stop is only bound via the event kick; remove
        # watchers' effect by ensuring sync loop is dead: the watch-kick
        # still binds, so verify the period loop is not pending anymore.
        assert not scheduler._loop.running
