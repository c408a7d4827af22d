"""Unit tests for the API server: CRUD, selectors, watch semantics."""

from __future__ import annotations

import pytest

from repro.cluster.api import (
    ConflictError,
    KubeApiServer,
    NotFoundError,
    WatchEventType,
)
from repro.cluster.images import ContainerImage
from repro.cluster.node import Node
from repro.cluster.objects import Service
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.cluster.resources import ResourceVector


@pytest.fixture
def api(engine) -> KubeApiServer:
    return KubeApiServer(engine)


def make_pod(name: str = "p", labels=None) -> Pod:
    spec = PodSpec(
        ContainerImage("img", 10), ResourceVector(1, 100, 100), labels=labels or {}
    )
    return Pod(name, spec)


class TestCrud:
    def test_create_and_get(self, api):
        pod = make_pod("a")
        api.create(pod)
        assert api.get("Pod", "a") is pod

    def test_create_duplicate_name_conflicts(self, api):
        api.create(make_pod("a"))
        with pytest.raises(ConflictError):
            api.create(make_pod("a"))

    def test_get_missing_raises(self, api):
        with pytest.raises(NotFoundError):
            api.get("Pod", "nope")

    def test_try_get_returns_none(self, api):
        assert api.try_get("Pod", "nope") is None

    def test_delete_removes(self, api):
        api.create(make_pod("a"))
        api.delete("Pod", "a")
        assert api.try_get("Pod", "a") is None

    def test_delete_missing_raises(self, api):
        with pytest.raises(NotFoundError):
            api.delete("Pod", "nope")

    def test_try_delete_missing_returns_none(self, api):
        assert api.try_delete("Pod", "nope") is None

    def test_unknown_kind_raises(self, api):
        with pytest.raises(KeyError):
            api.list("Widget")

    def test_creation_time_stamped_by_engine(self, api, engine):
        engine.call_in(7.0, lambda: api.create(make_pod("late")))
        engine.run()
        assert api.get("Pod", "late").meta.creation_time == 7.0

    def test_list_sorted_by_creation_then_name(self, api, engine):
        api.create(make_pod("b"))
        api.create(make_pod("a"))
        names = [p.name for p in api.list("Pod")]
        assert names == ["a", "b"]  # same creation time → ordered by name

    def test_list_with_selector(self, api):
        api.create(make_pod("a", labels={"app": "x"}))
        api.create(make_pod("b", labels={"app": "y"}))
        assert [p.name for p in api.pods({"app": "x"})] == ["a"]

    def test_list_with_selector_keeps_list_order(self, api, engine):
        # Same-instant names arrive unsorted (w-9 after w-10); the filtered
        # list must still be in (creation_time, name) order, as a fresh
        # copy, across membership changes.
        for name in ["w-9", "x-1", "w-10", "w-2"]:
            api.create(make_pod(name, labels={"app": "w" if name[0] == "w" else "x"}))
        engine.call_in(5.0, lambda: api.create(make_pod("w-0", labels={"app": "w"})))
        engine.run()
        listed = api.list("Pod", {"app": "w"})
        assert [p.name for p in listed] == ["w-10", "w-2", "w-9", "w-0"]
        assert listed == [p for p in api.list("Pod") if p.meta.labels["app"] == "w"]
        listed.clear()
        api.delete("Pod", "w-2")
        api.create(make_pod("w-1", labels={"app": "w"}))
        assert [p.name for p in api.pods({"app": "w"})] == ["w-10", "w-9", "w-0", "w-1"]

    def test_services_storable(self, api):
        svc = Service("master", {"app": "wq-master"}, service_type="LoadBalancer")
        api.create(svc)
        assert api.get("Service", "master") is svc


class TestWatch:
    def test_added_event_delivered_async(self, api, engine):
        events = []
        api.watch("Pod", events.append)
        api.create(make_pod("a"))
        assert events == []  # not yet: delivery is scheduled
        engine.run()
        assert [e.type for e in events] == [WatchEventType.ADDED]

    def test_replay_existing_on_subscribe(self, api, engine):
        api.create(make_pod("a"))
        engine.run()
        events = []
        api.watch("Pod", events.append, replay_existing=True)
        engine.run()
        assert [(e.type, e.obj.name) for e in events] == [(WatchEventType.ADDED, "a")]

    def test_no_replay_when_disabled(self, api, engine):
        api.create(make_pod("a"))
        engine.run()
        events = []
        api.watch("Pod", events.append, replay_existing=False)
        engine.run()
        assert events == []

    def test_modified_event_delivered(self, api, engine):
        events = []
        api.watch("Pod", events.append)
        pod = make_pod("a")
        api.create(pod)
        api.mark_modified(pod)
        engine.run()
        assert [e.type for e in events] == [WatchEventType.ADDED, WatchEventType.MODIFIED]

    def test_modified_after_delete_is_dropped(self, api, engine):
        events = []
        pod = make_pod("a")
        api.create(pod)
        engine.run()
        api.watch("Pod", events.append, replay_existing=False)
        api.delete("Pod", "a")
        api.mark_modified(pod)  # late status update
        engine.run()
        assert [e.type for e in events] == [WatchEventType.DELETED]

    def test_unwatch_stops_delivery(self, api, engine):
        events = []
        api.watch("Pod", events.append)
        api.unwatch("Pod", events.append)
        api.create(make_pod("a"))
        engine.run()
        assert events == []

    def test_writes_counter(self, api, engine):
        pod = make_pod("a")
        api.create(pod)
        api.mark_modified(pod)
        api.delete("Pod", "a")
        assert api.writes == 3


class TestPodTeardown:
    def test_deleting_running_pod_kills_container(self, api, engine):
        pod = make_pod("a")
        node = Node("n1")
        node.ready = True
        api.create(node)
        api.create(pod)
        pod.mark_scheduled(0.0, node)
        node.bind(pod)
        pod.mark_running(0.0)
        stopped = []
        pod.on_stop = stopped.append
        api.delete("Pod", "a")
        assert stopped == [pod]
        assert pod.phase is PodPhase.FAILED
        assert pod not in node.pods

    def test_deleting_pending_pod_marks_failed(self, api):
        pod = make_pod("a")
        api.create(pod)
        api.delete("Pod", "a")
        assert pod.phase is PodPhase.FAILED
        assert pod.deletion_requested


class TestHelpers:
    def test_pending_pods_excludes_bound(self, api):
        bound = make_pod("bound")
        pending = make_pod("pending")
        node = Node("n1")
        node.ready = True
        api.create(node)
        api.create(bound)
        api.create(pending)
        bound.mark_scheduled(0.0, node)
        node.bind(bound)
        assert api.pending_pods() == [pending]

    def test_pending_pods_follow_writes_in_list_order(self, api, engine):
        node = Node("n1")
        node.ready = True
        api.create(node)
        for name in ["w-9", "w-10", "w-1"]:
            api.create(make_pod(name))
        assert [p.name for p in api.pending_pods()] == ["w-1", "w-10", "w-9"]
        bound = api.get("Pod", "w-10")
        bound.mark_scheduled(0.0, node)
        node.bind(bound)
        api.mark_modified(bound)
        api.delete("Pod", "w-1")
        assert [p.name for p in api.pending_pods()] == ["w-9"]
        assert list(api.pending_index) == api.pending_pods()

    def test_ready_nodes_filters(self, api):
        n1, n2 = Node("n1"), Node("n2")
        n1.ready = True
        api.create(n1)
        api.create(n2)
        assert api.ready_nodes() == [n1]


class TestSelectorSnapshots:
    SELECTORS = ({"app": "w"}, {"app": "w", "tier": "x"}, {"tier": "x"})

    @staticmethod
    def literal(api, selector):
        return [p for p in api.list("Pod") if p.meta.matches(selector)]

    def assert_snapshots_exact(self, api):
        for selector in self.SELECTORS:
            listed = api.list("Pod", selector)
            want = self.literal(api, selector)
            assert len(listed) == len(want)
            assert all(a is b for a, b in zip(listed, want)), selector

    def test_same_objects_same_order_as_literal_filter(self, api, engine):
        def labels(i):
            out = {"app": "w" if i % 3 else "x"}
            if i % 2:
                out["tier"] = "x"
            return out

        # Same-instant creates arrive out of name order (p-10 before p-9).
        for i in (10, 9, 2, 11, 1):
            api.create(make_pod(f"p-{i}", labels=labels(i)))
        self.assert_snapshots_exact(api)
        engine.run(until=5.0)
        for step in range(12, 30):
            if step % 4 == 0:
                victim = api.list("Pod")[step % len(api.list("Pod"))]
                api.delete("Pod", victim.name)
            elif step % 4 == 1:
                api.mark_modified(api.list("Pod")[0])
            else:
                api.create(make_pod(f"p-{step}", labels=labels(step)))
            self.assert_snapshots_exact(api)
            engine.run(until=engine.now + 1.0)
        # A selector first listed late builds from the current store.
        late = {"app": "x", "tier": "x"}
        assert api.list("Pod", late) == self.literal(api, late)

    def test_returns_a_fresh_list(self, api):
        for name in ("a", "b", "c"):
            api.create(make_pod(name, labels={"app": "w"}))
        listed = api.pods({"app": "w"})
        listed.clear()
        api.list("Pod", {"app": "w"}).append(make_pod("z"))
        del api.list("Pod", {"app": "w"})[0]
        assert [p.name for p in api.pods({"app": "w"})] == ["a", "b", "c"]
        assert api.selectors("Pod") == [{"app": "w"}]
