"""Unit tests for the cloud controller (node autoscaler)."""

from __future__ import annotations

import pytest

from repro.cluster.api import KubeApiServer, WatchEventType
from repro.cluster.cloud import (
    CloudController,
    CloudControllerConfig,
    PreemptiblePoolConfig,
)
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4, Node
from repro.cluster.pod import Pod, PodSpec, REASON_FAILED_SCHEDULING
from repro.cluster.resources import ResourceVector
from repro.cluster.scheduler import KubeScheduler
from repro.sim.rng import RngRegistry


@pytest.fixture
def api(engine):
    return KubeApiServer(engine)


def make_controller(engine, api, rng=None, **overrides):
    defaults = dict(
        machine_type=N1_STANDARD_4,
        min_nodes=1,
        max_nodes=5,
        scan_period_s=10.0,
        reservation_mean_s=100.0,
        reservation_std_s=0.0,
        idle_timeout_s=120.0,
        reservation_floor_s=10.0,
    )
    defaults.update(overrides)
    return CloudController(
        engine, api, rng or RngRegistry(3), CloudControllerConfig(**defaults)
    )


def pending_pod(api, name="p", cores=4.0):
    pod = Pod(name, PodSpec(ContainerImage("i", 10), ResourceVector(cores, 1024, 1024)))
    pod.add_event(0.0, REASON_FAILED_SCHEDULING, "Insufficient Resource")
    api.create(pod)
    return pod


def fill_existing_nodes(api):
    """Bind a node-sized filler pod to every ready node so pending pods
    cannot be packed into existing free capacity."""
    for i, node in enumerate(api.ready_nodes()):
        filler = Pod(
            f"filler-{i}",
            PodSpec(ContainerImage("i", 10), node.allocatable),
        )
        api.create(filler)
        filler.mark_scheduled(api.engine.now, node)
        node.bind(filler)


class TestBootstrap:
    def test_min_nodes_created_immediately(self, engine, api):
        make_controller(engine, api, min_nodes=3)
        assert len(api.ready_nodes()) == 3

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            CloudControllerConfig(min_nodes=5, max_nodes=2)

    def test_invalid_scan_period_rejected(self):
        with pytest.raises(ValueError):
            CloudControllerConfig(scan_period_s=0)


class TestScaleUp:
    def test_pending_pod_triggers_provisioning(self, engine, api):
        ctl = make_controller(engine, api)
        fill_existing_nodes(api)
        pending_pod(api)
        engine.run(until=150.0)
        assert ctl.node_count() == 2

    def test_reservation_latency_applies(self, engine, api):
        ctl = make_controller(engine, api)
        fill_existing_nodes(api)
        pending_pod(api)
        engine.run(until=50.0)
        assert ctl.node_count() == 1  # still reserving
        engine.run(until=150.0)
        assert ctl.node_count() == 2

    def test_max_nodes_cap(self, engine, api):
        ctl = make_controller(engine, api, max_nodes=2)
        for i in range(10):
            pending_pod(api, f"p{i}")
        engine.run(until=400.0)
        assert ctl.node_count() == 2

    def test_packing_estimate_shares_nodes(self, engine, api):
        ctl = make_controller(engine, api)
        fill_existing_nodes(api)
        # Four 1-core pods fit one 4-core node: only one new node needed.
        for i in range(4):
            pending_pod(api, f"p{i}", cores=1.0)
        engine.run(until=150.0)
        assert ctl.node_count() == 2

    def test_unpackable_pod_not_provisioned_for(self, engine, api):
        ctl = make_controller(engine, api)
        pending_pod(api, "huge", cores=64.0)
        engine.run(until=400.0)
        assert ctl.node_count() == 1

    def test_no_double_provisioning_while_in_flight(self, engine, api):
        ctl = make_controller(engine, api)
        fill_existing_nodes(api)
        pending_pod(api)
        engine.run(until=50.0)  # several scans while reservation pending
        assert ctl.target_count() == 2  # exactly one reservation in flight
        engine.run(until=150.0)
        assert ctl.node_count() == 2

    def test_max_concurrent_reservations_batches(self, engine, api):
        ctl = make_controller(engine, api, max_nodes=10, max_concurrent_reservations=2)
        for i in range(6):
            pending_pod(api, f"p{i}", cores=4.0)
        engine.run(until=105.0)
        assert ctl.node_count() == 3  # first batch of 2 landed
        engine.run(until=215.0)
        assert ctl.node_count() == 5

    def test_nodes_provisioned_counter(self, engine, api):
        ctl = make_controller(engine, api)
        fill_existing_nodes(api)
        pending_pod(api)
        engine.run(until=150.0)
        assert ctl.nodes_provisioned == 2  # bootstrap + scale-up


class TestScaleDown:
    def test_idle_node_removed_after_timeout(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=1, max_nodes=5, idle_timeout_s=60.0)
        fill_existing_nodes(api)
        pending_pod(api)
        engine.run(until=150.0)
        assert ctl.node_count() == 2
        # Free everything so the extra node goes (and stays) idle.
        api.delete("Pod", "p")
        api.delete("Pod", "filler-0")
        engine.run(until=400.0)
        assert ctl.node_count() == 1
        assert ctl.nodes_removed == 1

    def test_never_below_min_nodes(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=2, max_nodes=5, idle_timeout_s=30.0)
        engine.run(until=500.0)
        assert ctl.node_count() == 2

    def test_busy_node_not_removed(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=1, max_nodes=5, idle_timeout_s=30.0)
        scheduler = KubeScheduler(engine, api)
        pod = Pod("busy", PodSpec(ContainerImage("i", 10), ResourceVector(1, 512, 512)))
        api.create(pod)
        engine.run(until=500.0)
        assert pod.node is not None
        assert ctl.node_count() == 1

    def test_idle_timer_resets_when_node_gets_work(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=1, max_nodes=5, idle_timeout_s=100.0)
        scheduler = KubeScheduler(engine, api)
        # Node idle 50s, then a pod lands, finishing at 120; removal clock
        # must restart from ~120 — the node survives until ~220.
        node = api.ready_nodes()[0]

        def occupy():
            pod = Pod("later", PodSpec(ContainerImage("i", 10), ResourceVector(1, 512, 512)))
            api.create(pod)
            engine.call_in(70.0, lambda: api.delete("Pod", "later"))

        engine.call_in(50.0, occupy)
        engine.run(until=190.0)
        assert ctl.node_count() == 1  # min_nodes floor anyway

    def test_idle_nodes_removed_in_one_sync_down_to_min(self, engine, api):
        ctl = make_controller(
            engine, api, min_nodes=3, max_nodes=8, scan_period_s=10.0, idle_timeout_s=30.0
        )
        for name, preemptible in [("extra-0", False), ("extra-1", False),
                                  ("extra-2", False), ("spot-0", True)]:
            node = Node(name, N1_STANDARD_4, preemptible=preemptible)
            node.ready = True
            api.create(node)
        assert (ctl.ondemand_node_count(), ctl.spot_node_count()) == (6, 1)
        removed_at = {}

        def on_node(event):
            if event.type is WatchEventType.DELETED:
                removed_at[event.obj.name] = event.time

        api.watch("Node", on_node, replay_existing=False)
        engine.run(until=100.0)
        # All seven went idle together at t=0 and are visited in list
        # order: the on-demand ones stop at the floor, while the spot node
        # has no floor and does not count against the on-demand one.
        assert removed_at == {"extra-0": 30.0, "extra-1": 30.0, "extra-2": 30.0,
                              "spot-0": 30.0}
        assert ctl.nodes_removed == 4
        assert (ctl.ondemand_node_count(), ctl.spot_node_count()) == (3, 0)

    def test_removed_node_deleted_from_api(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=0, max_nodes=5, idle_timeout_s=30.0)
        pending_pod(api)
        engine.run(until=150.0)
        api.delete("Pod", "p")
        engine.run(until=400.0)
        assert api.nodes() == []


class TestNodeCounts:
    """The counts come from the API server's write-path tally; these pin
    them to a filter over the stored nodes where a tally could slip."""

    @staticmethod
    def literal(api):
        live = [n for n in api.nodes() if not n.deleted]
        spot = len([n for n in live if n.preemptible])
        return len(live), len(live) - spot, spot

    @staticmethod
    def counts(ctl):
        return ctl.node_count(), ctl.ondemand_node_count(), ctl.spot_node_count()

    def test_exact_across_a_same_instant_landing_burst(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=1, max_nodes=4)
        seen = []
        register = ctl._register_node

        def landing(**kwargs):
            node = register(**kwargs)
            seen.append((engine.now, self.counts(ctl), self.literal(api)))
            return node

        ctl._register_node = landing
        # Six reservations with a zero spread land at one instant, over
        # the cap: the cap check reads the count once per landing.
        for _ in range(6):
            ctl._reserve_node()
        engine.run(until=101.0)
        assert [t for t, _, _ in seen] == [100.0] * 3
        assert all(got == want for _, got, want in seen)
        assert [got[1] for _, got, _ in seen] == [2, 3, 4]
        assert self.counts(ctl) == (4, 4, 0)

    def test_exact_for_a_node_flagged_deleted_but_still_stored(self, engine, api):
        ctl = make_controller(
            engine, api, min_nodes=2, max_nodes=5,
            preemptible=PreemptiblePoolConfig(max_nodes=2),
        )
        spot = ctl._register_node(preemptible=True)
        ondemand = api.nodes()[0]
        assert self.counts(ctl) == (3, 2, 1)
        ondemand.deleted = True
        spot.deleted = True
        assert ondemand in api.nodes() and spot in api.nodes()
        assert self.counts(ctl) == self.literal(api) == (1, 1, 0)
        api.delete("Node", ondemand.name)
        api.delete("Node", spot.name)
        assert self.counts(ctl) == self.literal(api) == (1, 1, 0)
        # A stored node that stops being ready still counts for the cloud.
        api.nodes()[0].ready = False
        assert self.counts(ctl) == self.literal(api) == (1, 1, 0)


class TestSweepSemantics:
    """What each autoscaler pass decides, pinned at the points where a
    pass that looks only at changed nodes could drift from a full scan."""

    @staticmethod
    def record(ctl, method):
        """Wrap ``ctl.<method>`` so every call's first argument is logged."""
        calls = []
        original = getattr(ctl, method)

        def recorder(*args, **kwargs):
            calls.append(args[0].name if args else kwargs)
            return original(*args, **kwargs)

        setattr(ctl, method, recorder)
        return calls

    @staticmethod
    def add_node(api, name, *, preemptible=False):
        node = Node(name, N1_STANDARD_4, creation_time=api.engine.now,
                    preemptible=preemptible)
        node.ready = True
        api.create(node)
        return node

    def test_failed_scheduling_pod_resets_every_idle_timer(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=2, max_nodes=2,
                              idle_timeout_s=100.0)
        engine.run(until=25.0)
        assert ctl._idle_since == {"node-001": 0.0, "node-002": 0.0}
        pending_pod(api, "stuck", cores=64.0)
        engine.run(until=35.0)
        assert ctl._idle_since == {}
        api.delete("Pod", "stuck")
        engine.run(until=45.0)
        # The timers restart at the first sync after the guard lifts.
        assert ctl._idle_since == {"node-001": 40.0, "node-002": 40.0}

    def test_idle_node_with_preemption_notice_is_never_removed(self, engine, api):
        ctl = make_controller(
            engine, api, min_nodes=1, idle_timeout_s=30.0,
            preemptible=PreemptiblePoolConfig(max_nodes=2, grace_period_s=1000.0),
        )
        removals = self.record(ctl, "_remove_node")
        spot = ctl._register_node(preemptible=True)
        engine.run(until=15.0)
        assert spot.name in ctl._idle_since
        assert ctl.begin_preemption(spot)
        engine.run(until=200.0)
        assert removals == []
        assert api.try_get("Node", spot.name) is spot

    def test_node_flipped_not_ready_loses_its_timer(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=1, idle_timeout_s=100.0)
        extra = self.add_node(api, "extra")
        engine.run(until=15.0)
        assert ctl._idle_since["extra"] == 0.0
        extra.ready = False
        engine.run(until=25.0)
        assert "extra" not in ctl._idle_since
        extra.ready = True
        engine.run(until=35.0)
        assert ctl._idle_since["extra"] == 30.0

    def test_idle_node_killed_by_chaos_is_never_a_candidate(self, engine, api):
        from repro.cluster.chaos import ChaosInjector

        ctl = make_controller(engine, api, min_nodes=1, idle_timeout_s=30.0)
        chaos = ChaosInjector(engine, api, RngRegistry(4), cloud=ctl)
        removals = self.record(ctl, "_remove_node")
        self.add_node(api, "doomed")
        self.add_node(api, "spare")
        engine.run(until=15.0)
        chaos.kill_node(api.get("Node", "doomed"))
        engine.run(until=100.0)
        # Two live nodes idle since 0 and a floor of one: the first by
        # name goes, and the killed node is never offered.
        assert removals == ["node-001"]
        assert ctl.nodes_removed == 1

    def test_equal_creation_times_removed_in_name_order_down_to_min(
        self, engine, api
    ):
        ctl = make_controller(engine, api, min_nodes=2, max_nodes=8,
                              idle_timeout_s=30.0)
        removals = self.record(ctl, "_remove_node")

        def land():
            # One instant, created out of name order.
            for name in ("c-0", "a-2", "b-1"):
                self.add_node(api, name)

        engine.call_in(5.0, land)
        engine.run(until=100.0)
        # At t=30 the bootstrap pair (created at 0, idle since 0) goes,
        # oldest name first; at t=40 the landed three are due, newest
        # first and then by name, and the floor of two stops after one.
        assert removals == ["node-001", "node-002", "a-2"]
        assert sorted(n.name for n in api.nodes()) == ["b-1", "c-0"]

    def test_nothing_reserved_at_max_nodes_with_pending_pods(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=2, max_nodes=2)
        fill_existing_nodes(api)
        for i in range(3):
            pending_pod(api, f"p{i}")
        reservations = self.record(ctl, "_reserve_node")
        engine.run(until=300.0)
        assert reservations == []
        assert ctl.target_count() == ctl.node_count() == 2
