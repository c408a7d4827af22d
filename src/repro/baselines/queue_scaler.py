"""A KEDA-style queue-length autoscaler baseline.

Control law (KEDA's ``queueLength`` trigger feeding an HPA external
metric, collapsed to its effective behaviour):

    desired = clamp(ceil(backlog / tasks_per_replica), min, max)

with a polling interval and a scale-down *cooldown*: the replica count
only shrinks after the recommendation has been at/below the lower value
for ``cooldown_s`` seconds. Unlike HTA it knows nothing about resource
initialization time or per-category footprints — it reacts to queue
*length*, not queue *size in resources* — and unlike HTA it scales a
replica controller whose shrink path **deletes pods** (killing tasks).

This is deliberately a strong baseline: on homogeneous workloads with
well-chosen ``tasks_per_replica`` it tracks demand closely; HTA's edge
shows up when task footprints are unknown/mixed or provisioning latency
makes reactive requests arrive late.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

import math

from repro.cluster.replicaset import WorkerReplicaSet
from repro.sim.engine import Engine, PeriodicTask
from repro.wq.master import Master


@dataclass(frozen=True, slots=True)
class QueueScalerConfig:
    """Tunables; defaults follow KEDA's."""

    #: Waiting+running tasks one replica is expected to absorb
    #: (KEDA's ``queueLength`` target value).
    tasks_per_replica: float = 3.0
    min_replicas: int = 1
    max_replicas: int = 20
    polling_interval_s: float = 30.0
    #: The recommendation must stay low this long before shrinking
    #: (KEDA's ``cooldownPeriod``).
    cooldown_s: float = 300.0

    def __post_init__(self) -> None:
        if self.tasks_per_replica <= 0:
            raise ValueError("tasks_per_replica must be positive")
        if self.min_replicas < 0 or self.max_replicas < self.min_replicas:
            raise ValueError("invalid replica bounds")
        if self.polling_interval_s <= 0:
            raise ValueError("polling_interval_s must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")


class QueueLengthAutoscaler:
    """Scales a :class:`WorkerReplicaSet` from the master's backlog."""

    def __init__(
        self,
        engine: Engine,
        master: Master,
        target: WorkerReplicaSet,
        config: QueueScalerConfig = QueueScalerConfig(),
    ) -> None:
        self.engine = engine
        self.master = master
        self.target = target
        self.config = config
        self.sync_count = 0
        self.scale_events = 0
        self._recommendations: Deque[Tuple[float, int]] = deque()
        self._loop = PeriodicTask(
            engine, config.polling_interval_s, self.sync, start_after=0.0
        )
        if target.current_count() < config.min_replicas:
            target.scale_to(config.min_replicas)

    def stop(self) -> None:
        self._loop.stop()

    # ----------------------------------------------------------------- sync
    def sync(self) -> None:
        self.sync_count += 1
        backlog = self.master.stats().backlog
        raw = math.ceil(backlog / self.config.tasks_per_replica)
        raw = max(self.config.min_replicas, min(self.config.max_replicas, raw))
        desired = self._cooled(raw)
        current = self.target.current_count()
        if desired != current:
            self.scale_events += 1
            self.target.scale_to(desired)

    def _cooled(self, raw: int) -> int:
        """Scale-down cooldown: use the max recommendation in the window."""
        now = self.engine.now
        self._recommendations.append((now, raw))
        cutoff = now - self.config.cooldown_s
        while self._recommendations and self._recommendations[0][0] < cutoff:
            self._recommendations.popleft()
        return max(rec for _, rec in self._recommendations)
