"""Tests for the Cluster facade and its config plumbing."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import GKE_SMALL_3CPU, N1_STANDARD_4
from repro.cluster.pod import Pod, PodSpec
from repro.cluster.resources import ResourceVector
from repro.sim.rng import RngRegistry


class TestConfig:
    def test_cloud_config_mirrors_cluster_config(self):
        cfg = ClusterConfig(
            machine_type=GKE_SMALL_3CPU,
            min_nodes=1,
            max_nodes=7,
            node_reservation_mean_s=42.0,
            node_idle_timeout_s=99.0,
            max_concurrent_reservations=4,
        )
        cloud = cfg.cloud_config()
        assert cloud.machine_type is GKE_SMALL_3CPU
        assert cloud.min_nodes == 1
        assert cloud.max_nodes == 7
        assert cloud.reservation_mean_s == 42.0
        assert cloud.idle_timeout_s == 99.0
        assert cloud.max_concurrent_reservations == 4


class TestFacade:
    @pytest.fixture
    def cluster(self, engine):
        return Cluster(
            engine,
            RngRegistry(2),
            ClusterConfig(machine_type=N1_STANDARD_4, min_nodes=2, max_nodes=4),
        )

    def test_bootstrap_pool(self, cluster):
        assert cluster.node_count() == 2
        assert cluster.total_ready_cores() == 8.0

    def test_kubelet_for_unscheduled_pod_raises(self, cluster):
        pod = Pod("p", PodSpec(ContainerImage("i", 1), ResourceVector(1, 1, 1)))
        with pytest.raises(RuntimeError):
            cluster.kubelet_for(pod)

    def test_kubelet_for_scheduled_pod(self, engine, cluster):
        pod = Pod("p", PodSpec(ContainerImage("i", 1), ResourceVector(1, 512, 512)))
        cluster.api.create(pod)
        engine.run(until=30.0)
        assert cluster.kubelet_for(pod) is not None

    def test_describe_keys(self, cluster):
        d = cluster.describe()
        assert set(d) >= {"time", "nodes", "pending_pods", "pods", "api_writes"}
        assert d["nodes"] == 2

    def test_stop_halts_control_loops(self, engine, cluster):
        cluster.stop()
        pod = Pod("p", PodSpec(ContainerImage("i", 1), ResourceVector(1, 512, 512)))
        cluster.api.create(pod)
        # The watch-kick still binds pods even with the periodic loop
        # stopped; but the metrics server must not scrape.
        engine.run(until=100.0)
        assert cluster.metrics.scrapes <= 1
