"""The Horizontal Pod Autoscaler — the paper's baseline (eq. 1).

Implements the Kubernetes HPA control law on CPU utilization:

    desired = ceil(currentReplicas × currentUtilization / targetUtilization)

with the behaviours the paper's §III-B and §VI-A discussions depend on:

* a **tolerance band** (default 10 %): ratios within ``1 ± tolerance``
  cause no action — this is why Config-99 "never scales up" (observed
  utilization sits near 65 %, ratio 0.66, and with the stabilization
  window holding the floor the replica count never rises);
* a **sync period** (default 15 s);
* a **scale-up rate cap**: per sync, replicas grow to at most
  ``max(2 × current, current + 4)`` — so a lower target (Config-10) does
  not scale faster than Config-50 once both saturate the cap;
* a **scale-down stabilization window** (default 300 s — "the default
  value is 5 minutes"): the effective recommendation is the *maximum* of
  the last window of recommendations, which keeps the cluster pinned at
  its peak while any recent sample wanted it big — the source of the HPA
  resource waste in fig 10.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import math

from repro.cluster.metrics_server import MetricsServer
from repro.cluster.replicaset import WorkerReplicaSet
from repro.sim.engine import Engine, PeriodicTask


@dataclass(frozen=True, slots=True)
class HpaConfig:
    """HPA tunables; defaults follow upstream Kubernetes."""

    target_cpu_utilization: float = 0.5  # Config-50 by default
    min_replicas: int = 1
    max_replicas: int = 20
    sync_period_s: float = 15.0
    tolerance: float = 0.1
    scale_down_stabilization_s: float = 300.0

    def __post_init__(self) -> None:
        if not 0 < self.target_cpu_utilization:
            raise ValueError("target_cpu_utilization must be positive")
        if self.min_replicas < 0 or self.max_replicas < self.min_replicas:
            raise ValueError(
                f"invalid replica bounds min={self.min_replicas} max={self.max_replicas}"
            )
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")


class HorizontalPodAutoscaler:
    """Scales a :class:`WorkerReplicaSet` from metrics-server utilization."""

    def __init__(
        self,
        engine: Engine,
        metrics: MetricsServer,
        target: WorkerReplicaSet,
        config: HpaConfig = HpaConfig(),
    ) -> None:
        self.engine = engine
        self.metrics = metrics
        self.target = target
        self.config = config
        #: (time, recommendation) pairs within the stabilization window.
        self._recommendations: Deque[Tuple[float, int]] = deque()
        self.sync_count = 0
        self.scale_events = 0
        self.last_utilization: Optional[float] = None
        self.last_desired: Optional[int] = None
        self._loop = PeriodicTask(engine, config.sync_period_s, self.sync, start_after=0.0)
        if target.current_count() < config.min_replicas:
            target.scale_to(config.min_replicas)

    def stop(self) -> None:
        self._loop.stop()

    # ----------------------------------------------------------------- sync
    def sync(self) -> None:
        self.sync_count += 1
        current = self.target.current_count()
        ready = self.target.ready_pods()
        utilization = self.metrics.average_utilization(ready)
        self.last_utilization = utilization

        raw_desired = self._raw_recommendation(current, len(ready), utilization)
        desired = self._stabilized(raw_desired)
        desired = max(self.config.min_replicas, min(self.config.max_replicas, desired))
        desired = self._cap_scale_up(current, desired)
        self.last_desired = desired

        if desired != current:
            self.scale_events += 1
            self.target.scale_to(desired)

    # ----------------------------------------------------------- components
    def _raw_recommendation(
        self, current: int, ready: int, utilization: Optional[float]
    ) -> int:
        """Equation (1) with the tolerance band."""
        if utilization is None:
            # No metrics yet (pods still starting): hold steady, as HPA
            # does when the metrics API returns no samples.
            return max(current, self.config.min_replicas)
        base = ready if ready > 0 else max(current, 1)
        target = self.config.target_cpu_utilization
        ratio = utilization / target
        if abs(ratio - 1.0) <= self.config.tolerance:
            return current
        return max(1, math.ceil(base * ratio))

    def _stabilized(self, raw: int) -> int:
        """Scale-down stabilization: use the max recommendation over the
        trailing window, so dips must persist before the cluster shrinks."""
        now = self.engine.now
        self._recommendations.append((now, raw))
        cutoff = now - self.config.scale_down_stabilization_s
        while self._recommendations and self._recommendations[0][0] < cutoff:
            self._recommendations.popleft()
        return max(rec for _, rec in self._recommendations)

    def _cap_scale_up(self, current: int, desired: int) -> int:
        """Upstream HPA's default scale-up policy: per sync period the
        replica count may at most double, or grow by 4, whichever is more."""
        if desired <= current:
            return desired
        cap = max(2 * current, current + 4)
        return min(desired, cap)
