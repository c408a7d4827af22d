"""Unit tests for container images/registry and base API objects."""

from __future__ import annotations

import pytest

from repro.cluster.images import ContainerImage, ImageRegistry
from repro.cluster.objects import ObjectMeta, Service, StatefulSet
from repro.sim.rng import RngRegistry


class TestContainerImage:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ContainerImage("x", -1.0)

    def test_images_hashable_and_frozen(self):
        img = ContainerImage("x", 100)
        assert img in {img}
        with pytest.raises(AttributeError):
            img.size_mb = 5  # type: ignore[misc]


class TestImageRegistry:
    def test_pull_duration_deterministic_without_jitter(self):
        reg = ImageRegistry(RngRegistry(0), pull_bandwidth_mbps=100, fixed_overhead_s=2, jitter_cv=0)
        img = ContainerImage("x", 500)
        assert reg.pull_duration(img) == pytest.approx(7.0)

    def test_mean_pull_duration(self):
        reg = ImageRegistry(RngRegistry(0), pull_bandwidth_mbps=50, fixed_overhead_s=1)
        assert reg.mean_pull_duration(ContainerImage("x", 100)) == pytest.approx(3.0)

    def test_jitter_stays_near_mean(self):
        reg = ImageRegistry(RngRegistry(0), pull_bandwidth_mbps=100, jitter_cv=0.02)
        img = ContainerImage("x", 500)
        durations = [reg.pull_duration(img) for _ in range(100)]
        mean = sum(durations) / len(durations)
        assert abs(mean - 7.0) < 0.3

    def test_pulls_counted(self):
        reg = ImageRegistry(RngRegistry(0))
        reg.pull_duration(ContainerImage("x", 1))
        reg.pull_duration(ContainerImage("y", 1))
        assert reg.pulls_started == 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ImageRegistry(RngRegistry(0), pull_bandwidth_mbps=0)
        with pytest.raises(ValueError):
            ImageRegistry(RngRegistry(0), fixed_overhead_s=-1)


class TestObjectMeta:
    def test_label_selector_matching(self):
        meta = ObjectMeta("x", labels={"app": "wq", "tier": "worker"})
        assert meta.matches({"app": "wq"})
        assert meta.matches({"app": "wq", "tier": "worker"})
        assert not meta.matches({"app": "other"})
        assert meta.matches({})  # empty selector matches everything


class TestService:
    def test_valid_types(self):
        for t in ("ClusterIP", "LoadBalancer", "NodePort"):
            assert Service("s" + t, {}, service_type=t).service_type == t

    def test_invalid_type_rejected(self):
        with pytest.raises(ValueError):
            Service("s", {}, service_type="Magic")

    def test_selector_copied(self):
        sel = {"app": "m"}
        svc = Service("s", sel)
        sel["app"] = "changed"
        assert svc.selector == {"app": "m"}


class TestStatefulSet:
    def test_defaults(self):
        ss = StatefulSet("master")
        assert ss.replicas == 1
        assert ss.ready_replicas == 0

    def test_negative_replicas_rejected(self):
        with pytest.raises(ValueError):
            StatefulSet("m", replicas=-1)
