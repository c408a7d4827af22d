"""The periodic loops that read pending pods cost O(1) while nothing they
read has changed.

The cluster autoscaler's scale-up and its scale-down guard, and HTA's
pending-pod count, remember the API server's ``state_version()`` at
their last scan. These tests pin what a quiet scan skips, what makes the
next scan run again, and the passes that must never be skipped.
"""

from __future__ import annotations

import pytest

from repro.cluster.api import KubeApiServer
from repro.cluster.cloud import PreemptiblePoolConfig
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import PREEMPTIBLE_LABEL
from repro.cluster.pod import Pod, PodSpec
from repro.cluster.resources import ResourceVector
from repro.hta.provisioner import WorkerProvisioner
from tests.cluster.test_cloud import fill_existing_nodes, make_controller, pending_pod


@pytest.fixture
def api(engine):
    return KubeApiServer(engine)


def count_calls(obj, method):
    """Wrap ``obj.<method>`` and return the list its calls append to."""
    calls = []
    original = getattr(obj, method)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(obj, method, counting)
    return calls


class TestStateVersion:
    def test_in_place_changes_without_a_write_advance_it(self, engine, api):
        make_controller(engine, api, min_nodes=1)
        pod = pending_pod(api)
        (node,) = api.nodes()
        version = api.state_version()
        pod.deletion_requested = True
        assert api.state_version() != version
        version = api.state_version()
        node.unschedulable = True
        assert api.state_version() != version

    def test_reads_leave_it_alone(self, engine, api):
        make_controller(engine, api, min_nodes=2)
        pending_pod(api)
        version = api.state_version()
        api.pending_pods()
        api.nodes()
        list(api.capacity_index.descending(0.0))
        assert api.state_version() == version


class TestQuietScaleUp:
    def wait_for_machines(self, engine, api):
        """Two whole-node pods wait for the two machines in flight."""
        ctl = make_controller(engine, api, min_nodes=2, max_nodes=5)
        fill_existing_nodes(api)
        pending_pod(api, "p0")
        pending_pod(api, "p1")
        engine.run(until=0.0)  # the t=0 scan reserves both machines
        assert ctl._inflight == 2
        return ctl

    def test_a_quiet_scan_does_not_pack(self, engine, api):
        ctl = self.wait_for_machines(engine, api)
        packs = count_calls(ctl, "_nodes_needed")
        listed = count_calls(api, "pending_pods")
        # The t=0 pass reserved up to the need, so a pass from the state
        # it left would reserve nothing: every later scan is answered
        # from the memos, the scale-down guard's included.
        ctl.sync()
        ctl.sync()
        ctl.sync()
        engine.run(until=50.0)  # five more scans, still waiting
        assert packs == [] and listed == []
        assert ctl.scans_skipped == 2 * 8
        assert ctl._inflight == 2

    def test_a_write_makes_the_next_scan_pack(self, engine, api):
        ctl = self.wait_for_machines(engine, api)
        ctl.sync()
        packs = count_calls(ctl, "_nodes_needed")
        ctl.sync()
        assert packs == []
        pending_pod(api, "p2")
        reserve = count_calls(ctl, "_reserve_node")
        ctl.sync()
        assert len(packs) == 1 and len(reserve) == 1  # the third machine
        assert ctl._inflight == 3

    def test_a_reservation_lost_without_a_write_is_replaced(self, engine, api):
        # A boot failure changes nothing but the reservations in flight.
        ctl = self.wait_for_machines(engine, api)
        ctl.sync()
        ctl.boot_failure_prob = 1.0
        ctl._reservation_complete()  # one VM never boots
        assert ctl.boot_failures == 1 and ctl._inflight == 1
        reserve = count_calls(ctl, "_reserve_node")
        ctl.sync()
        assert len(reserve) == 1 and ctl._inflight == 2

    def test_a_silent_cordon_makes_the_next_scan_pack(self, engine, api):
        ctl = make_controller(engine, api, min_nodes=2, max_nodes=5)
        fill_existing_nodes(api)
        pending_pod(api, "p0", cores=1.0)
        # A filler finishes without a status write: its node could now
        # seat the pending pod, so the scan reserves nothing.
        filler = api.get("Pod", "filler-0")
        filler.mark_finished(0.0)
        ctl.sync()
        assert ctl._inflight == 0
        # Cordoning that node (no write either) takes the seat away.
        filler.node.unschedulable = True
        ctl.sync()
        assert ctl._inflight == 1

    def test_a_stockout_pass_is_never_skipped(self, engine, api):
        pool = PreemptiblePoolConfig(stockout_prob=1.0, grace_period_s=30.0)
        ctl = make_controller(engine, api, preemptible=pool)
        pod = Pod(
            "spot-p",
            PodSpec(
                ContainerImage("i", 10),
                ResourceVector(4.0, 1024, 1024),
                node_selector={PREEMPTIBLE_LABEL: "true"},
            ),
        )
        pod.add_event(0.0, "FailedScheduling", "Insufficient Resource")
        api.create(pod)
        ctl.sync()
        ctl.sync()
        ctl.sync()
        # Every scan asks the provider again and draws a stockout.
        assert ctl.spot_stockouts == 3
        assert ctl._inflight_spot == 0

    def test_cluster_describe_reports_skipped_scans(self, engine, rng):
        cluster = Cluster(engine, rng, ClusterConfig(min_nodes=2, max_nodes=4))
        engine.run(until=60.0)
        described = cluster.describe()
        assert described["cloud_scans_skipped"] == cluster.cloud.scans_skipped
        assert described["cloud_scans_skipped"] > 0


class TestPendingCount:
    def provisioner(self, engine, api):
        return WorkerProvisioner(
            engine,
            api,
            None,  # type: ignore[arg-type]  # counting needs no runtime
            image=ContainerImage("i", 10),
            worker_request=ResourceVector(1, 1024, 1024),
            app_label="w",
            name_prefix="hta-w",
        )

    def test_an_unchanged_state_is_not_recounted(self, engine, api):
        provisioner = self.provisioner(engine, api)
        provisioner.create_workers(3)
        walks = count_calls(api, "list_pending")
        assert provisioner.pending_count() == 3
        assert provisioner.pending_count() == 3
        assert provisioner.pending_count() == 3
        assert len(walks) == 1

    def test_writes_and_silent_phase_changes_are_counted(self, engine, api):
        provisioner = self.provisioner(engine, api)
        (a, b) = provisioner.create_workers(2)
        assert provisioner.pending_count() == 2
        provisioner.create_workers(1)
        assert provisioner.pending_count() == 3
        api.delete("Pod", a.name)
        assert provisioner.pending_count() == 2
        # A bound pod finishing without a status write leaves the view.
        make_controller(engine, api, min_nodes=1)
        (node,) = api.nodes()
        b.mark_scheduled(0.0, node)
        node.bind(b)
        b.mark_finished(0.0)
        assert provisioner.pending_count() == len(provisioner.pending_pods()) == 1
