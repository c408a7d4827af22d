"""The worker factory: maintain a worker pool directly (no Kubernetes).

CCTools ships ``work_queue_factory``, a daemon that watches a master and
keeps between ``min_workers`` and ``max_workers`` workers submitted to
some batch system. It is the pre-orchestrator way of elasticizing Work
Queue — exactly the deployment style the paper's introduction contrasts
with Kubernetes-native autoscaling — and a useful harness for WQ-level
tests and experiments that don't need the cluster substrate at all.

Policy (matching the real factory's ``--tasks-per-worker`` mode):
``desired = clamp(ceil(backlog / tasks_per_worker), min, max)``; excess
workers above the desired count are *drained*, never killed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List

from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine, PeriodicTask
from repro.wq.master import Master
from repro.wq.worker import Worker, WorkerState


@dataclass(frozen=True, slots=True)
class FactoryConfig:
    min_workers: int = 1
    max_workers: int = 10
    tasks_per_worker: float = 1.0
    poll_interval_s: float = 30.0
    #: Simulated submit→connect latency of the underlying batch system.
    spawn_latency_s: float = 30.0

    def __post_init__(self) -> None:
        if self.min_workers < 0 or self.max_workers < self.min_workers:
            raise ValueError("invalid worker bounds")
        if self.tasks_per_worker <= 0:
            raise ValueError("tasks_per_worker must be positive")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.spawn_latency_s < 0:
            raise ValueError("spawn_latency_s must be non-negative")


class WorkerFactory:
    """Keeps ``min..max`` workers connected to a master."""

    def __init__(
        self,
        engine: Engine,
        master: Master,
        worker_capacity: ResourceVector,
        config: FactoryConfig = FactoryConfig(),
        *,
        name: str = "factory",
    ) -> None:
        self.engine = engine
        self.master = master
        self.worker_capacity = worker_capacity
        self.config = config
        self.name = name
        self._seq = itertools.count(1)
        self.workers: List[Worker] = []
        self.workers_spawned = 0
        self.workers_drained = 0
        self._loop = PeriodicTask(
            engine, config.poll_interval_s, self.poll, start_after=0.0
        )

    def stop(self, drain: bool = True) -> None:
        self._loop.stop()
        if drain:
            for w in self._live():
                w.drain()

    # ----------------------------------------------------------------- poll
    def poll(self) -> None:
        stats = self.master.stats()
        desired = math.ceil(stats.backlog / self.config.tasks_per_worker)
        desired = max(self.config.min_workers, min(self.config.max_workers, desired))
        live = self._live()
        delta = desired - len(live)
        if delta > 0:
            for _ in range(delta):
                self._spawn()
        elif delta < 0:
            idle = [w for w in live if w.idle]
            for worker in idle[: -delta]:
                worker.drain()
                self.workers_drained += 1

    def _spawn(self) -> Worker:
        worker = Worker(
            self.engine,
            self.master,
            name=f"{self.name}-w{next(self._seq):04d}",
            capacity=self.worker_capacity,
            connect_latency=self.config.spawn_latency_s,
        )
        self.workers.append(worker)
        self.workers_spawned += 1
        return worker

    def _live(self) -> List[Worker]:
        return [
            w
            for w in self.workers
            if w.state in (WorkerState.CONNECTING, WorkerState.READY)
        ]

    @property
    def live_count(self) -> int:
        return len(self._live())
