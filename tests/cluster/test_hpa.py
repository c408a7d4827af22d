"""Unit tests for the Horizontal Pod Autoscaler control law.

The HPA is tested against a stub metrics source and replica target so
each behaviour — ratio control, tolerance band, scale-up rate cap,
scale-down stabilization — is isolated from cluster machinery.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.cluster.hpa import HorizontalPodAutoscaler, HpaConfig


class StubMetrics:
    """Stands in for the metrics server: a settable utilization."""

    def __init__(self, utilization: Optional[float] = None):
        self.utilization = utilization

    def average_utilization(self, pods) -> Optional[float]:
        return self.utilization


class StubTarget:
    """Stands in for the replica set: all replicas instantly ready."""

    def __init__(self, replicas: int = 3):
        self.replicas = replicas
        self.history: list[int] = []

    def current_count(self) -> int:
        return self.replicas

    def ready_pods(self):
        return [object()] * self.replicas

    def scale_to(self, n: int) -> int:
        delta = n - self.replicas
        self.replicas = n
        self.history.append(n)
        return delta


def make_hpa(engine, metrics, target, **overrides):
    defaults = dict(
        target_cpu_utilization=0.5,
        min_replicas=1,
        max_replicas=100,
        sync_period_s=15.0,
        tolerance=0.1,
        scale_down_stabilization_s=300.0,
    )
    defaults.update(overrides)
    return HorizontalPodAutoscaler(engine, metrics, target, HpaConfig(**defaults))


class TestRatioControl:
    def test_equation_one_scale_up(self, engine):
        metrics, target = StubMetrics(1.0), StubTarget(4)
        make_hpa(engine, metrics, target)
        engine.run(until=1.0)  # first sync fires immediately
        # desired = ceil(4 * 1.0/0.5) = 8
        assert target.replicas == 8

    def test_scale_down_after_stabilization(self, engine):
        metrics, target = StubMetrics(1.0), StubTarget(10)
        make_hpa(
            engine, metrics, target,
            scale_down_stabilization_s=60.0, max_replicas=10,
        )
        engine.run(until=20.0)
        assert target.replicas == 10
        metrics.utilization = 0.1  # sustained dip from t=20
        engine.run(until=70.0)
        assert target.replicas == 10  # window still holds the old max
        engine.run(until=150.0)
        # desired = ceil(10 * 0.1/0.5) = 2 once the window drains
        assert target.replicas == 2

    def test_tolerance_band_suppresses_action(self, engine):
        # ratio = 0.52/0.5 = 1.04 → inside the 10% band → no scaling.
        metrics, target = StubMetrics(0.52), StubTarget(5)
        hpa = make_hpa(engine, metrics, target)
        engine.run(until=100.0)
        assert target.replicas == 5
        assert hpa.scale_events == 0

    def test_config99_never_scales_up(self, engine):
        """The paper's fig-2 Config-99 pathology: 65% usage vs a 99%
        target is ratio 0.66 — a scale-DOWN recommendation — so the pool
        never grows regardless of queue length."""
        metrics, target = StubMetrics(0.65), StubTarget(3)
        make_hpa(engine, metrics, target, target_cpu_utilization=0.99, min_replicas=3)
        engine.run(until=1000.0)
        assert target.replicas == 3

    def test_no_metrics_holds_steady(self, engine):
        metrics, target = StubMetrics(None), StubTarget(5)
        make_hpa(engine, metrics, target)
        engine.run(until=100.0)
        assert target.replicas == 5


class TestRateCaps:
    def test_scale_up_capped_at_double(self, engine):
        metrics, target = StubMetrics(10.0), StubTarget(8)
        make_hpa(engine, metrics, target)
        engine.run(until=1.0)
        assert target.replicas == 16  # not 160

    def test_scale_up_capped_at_plus_four_when_small(self, engine):
        metrics, target = StubMetrics(10.0), StubTarget(1)
        make_hpa(engine, metrics, target)
        engine.run(until=1.0)
        assert target.replicas == 5  # max(2*1, 1+4)

    def test_repeated_syncs_double_each_period(self, engine):
        metrics, target = StubMetrics(10.0), StubTarget(3)
        make_hpa(engine, metrics, target, max_replicas=60)
        engine.run(until=70.0)
        # syncs at t=0,15,30,45,60: 3 → 7 → 14 → 28 → 56 → 60
        assert target.history[:5] == [7, 14, 28, 56, 60]


class TestBounds:
    def test_max_replicas_clamped(self, engine):
        metrics, target = StubMetrics(5.0), StubTarget(10)
        make_hpa(engine, metrics, target, max_replicas=12)
        engine.run(until=100.0)
        assert target.replicas == 12

    def test_min_replicas_enforced_at_start(self, engine):
        metrics, target = StubMetrics(None), StubTarget(0)
        make_hpa(engine, metrics, target, min_replicas=3)
        assert target.replicas == 3

    def test_min_replicas_floor_on_scale_down(self, engine):
        metrics, target = StubMetrics(0.01), StubTarget(10)
        make_hpa(engine, metrics, target, min_replicas=2, scale_down_stabilization_s=10.0)
        engine.run(until=200.0)
        assert target.replicas == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            HpaConfig(target_cpu_utilization=0.0)
        with pytest.raises(ValueError):
            HpaConfig(min_replicas=5, max_replicas=2)
        with pytest.raises(ValueError):
            HpaConfig(tolerance=-0.1)


class TestStabilization:
    def test_transient_dip_does_not_shrink(self, engine):
        metrics, target = StubMetrics(1.0), StubTarget(4)
        make_hpa(engine, metrics, target, scale_down_stabilization_s=300.0, max_replicas=8)
        engine.run(until=1.0)
        assert target.replicas == 8
        metrics.utilization = 0.05  # 60-second dip
        engine.run(until=70.0)
        metrics.utilization = 1.0
        engine.run(until=100.0)
        assert target.replicas == 8  # never shrank

    def test_stop_halts_syncs(self, engine):
        metrics, target = StubMetrics(10.0), StubTarget(1)
        hpa = make_hpa(engine, metrics, target)
        hpa.stop()
        engine.run(until=200.0)
        assert hpa.sync_count == 0
