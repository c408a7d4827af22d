"""Unit tests for nodes and machine types."""

from __future__ import annotations

import pytest

from repro.cluster.images import ContainerImage
from repro.cluster.node import (
    GKE_SMALL_3CPU,
    MachineType,
    N1_STANDARD_4,
    N1_STANDARD_4_RESERVED,
    Node,
)
from repro.cluster.pod import Pod, PodSpec
from repro.cluster.resources import ResourceVector


def make_pod(name="p", cores=1.0) -> Pod:
    return Pod(name, PodSpec(ContainerImage("img", 10), ResourceVector(cores, 512, 512)))


class TestMachineTypes:
    def test_n1_standard_4_shape(self):
        assert N1_STANDARD_4.capacity.cores == 4
        assert N1_STANDARD_4.capacity.memory_mb == 15 * 1024

    def test_reserved_variant_allocatable(self):
        alloc = N1_STANDARD_4_RESERVED.allocatable
        assert alloc.cores == 3
        assert alloc.memory_mb == 14 * 1024

    def test_fig4_machine_shape(self):
        assert GKE_SMALL_3CPU.capacity.cores == 3

    def test_over_reservation_rejected(self):
        bad = MachineType(
            "bad",
            capacity=ResourceVector(1, 100, 100),
            system_reserved=ResourceVector(2, 0, 0),
        )
        with pytest.raises(ValueError):
            _ = bad.allocatable


class TestNodeCapacity:
    def test_new_node_not_ready(self):
        assert not Node("n").ready

    def test_requested_sums_active_pods(self):
        node = Node("n")
        node.ready = True
        for i in range(3):
            pod = make_pod(f"p{i}")
            node.bind(pod)
        assert node.requested().cores == 3

    def test_requested_ignores_terminal_pods(self):
        node = Node("n")
        node.ready = True
        pod = make_pod()
        node.bind(pod)
        pod.mark_scheduled(0, node)
        pod.mark_running(0)
        pod.mark_finished(1)
        assert node.requested().cores == 0

    def test_free_never_negative(self):
        node = Node("n", N1_STANDARD_4)
        node.ready = True
        for i in range(5):
            node.bind(make_pod(f"p{i}", cores=1))
        assert node.free().is_nonnegative()

    def test_can_fit_respects_allocatable(self):
        node = Node("n", N1_STANDARD_4_RESERVED)
        node.ready = True
        assert node.can_fit(ResourceVector(3, 1024, 1024))
        assert not node.can_fit(ResourceVector(4, 1024, 1024))

    def test_can_fit_false_when_not_ready(self):
        node = Node("n")
        assert not node.can_fit(ResourceVector(1, 1, 1))

    def test_can_fit_false_when_cordoned(self):
        node = Node("n")
        node.ready = True
        node.unschedulable = True
        assert not node.can_fit(ResourceVector(1, 1, 1))

    def test_double_bind_rejected(self):
        node = Node("n")
        pod = make_pod()
        node.bind(pod)
        with pytest.raises(RuntimeError):
            node.bind(pod)

    def test_unbind_missing_pod_is_noop(self):
        Node("n").unbind(make_pod())


class TestNodeState:
    def test_is_idle_requires_ready_and_no_active_pods(self):
        node = Node("n")
        assert not node.is_idle()  # not ready
        node.ready = True
        assert node.is_idle()
        node.bind(make_pod())
        assert not node.is_idle()

    def test_cpu_usage_sums_running_pods(self):
        node = Node("n")
        node.ready = True
        pod = make_pod()
        node.bind(pod)
        pod.mark_scheduled(0, node)
        pod.mark_running(0)
        pod.cpu_usage_fn = lambda: 1.5
        assert node.cpu_usage() == 1.5
        assert node.utilization() == pytest.approx(1.5 / 4)

    def test_describe_snapshot(self):
        node = Node("n", N1_STANDARD_4)
        node.ready = True
        d = node.describe()
        assert d["name"] == "n"
        assert d["ready"] is True
        assert d["machine_type"] == "n1-standard-4"
