"""A replica controller for worker pods — what HPA scales.

The HPA baseline needs "a deployment of worker pods" whose replica count
it adjusts. :class:`WorkerReplicaSet` maintains ``replicas`` pods from a
spec factory; scaling down **deletes** pods (not-yet-ready first, then
newest first), which kills the worker container and interrupts its
running tasks — precisely the disruption (§II-C) that motivates HTA's
drain-through-Work-Queue design. HTA does *not* use this controller; it
creates and drains pods directly.
"""

from __future__ import annotations

import itertools
from typing import Callable, List

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.sim.engine import Engine

SpecFactory = Callable[[str], PodSpec]


class WorkerReplicaSet:
    """Maintains N replicas of a worker pod template."""

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        name: str,
        spec_factory: SpecFactory,
        *,
        replicas: int = 0,
    ) -> None:
        self.engine = engine
        self.api = api
        self.name = name
        self.spec_factory = spec_factory
        self.replicas = 0
        self._seq = itertools.count(1)
        self.pods_created = 0
        self.pods_deleted = 0
        api.watch("Pod", self._on_pod_event, replay_existing=False)
        if replicas:
            self.scale_to(replicas)

    # ------------------------------------------------------------ selection
    @property
    def selector(self) -> dict:
        return {"replicaset": self.name}

    def pods(self) -> List[Pod]:
        return [
            p
            for p in self.api.pods(self.selector)
            if not p.phase.terminal and not p.deletion_requested
        ]

    def ready_pods(self) -> List[Pod]:
        return [p for p in self.pods() if p.phase is PodPhase.RUNNING]

    def ready_count(self) -> int:
        return len(self.ready_pods())

    def current_count(self) -> int:
        return len(self.pods())

    # -------------------------------------------------------------- scaling
    def scale_to(self, replicas: int) -> int:
        """Set the desired replica count; returns the applied delta."""
        if replicas < 0:
            raise ValueError(f"replicas must be non-negative, got {replicas}")
        self.replicas = replicas
        return self._reconcile()

    def _reconcile(self) -> int:
        current = self.pods()
        delta = self.replicas - len(current)
        if delta > 0:
            for _ in range(delta):
                self._create_pod()
        elif delta < 0:
            # Kubernetes' default victim ordering: not-yet-ready pods
            # first, then the most recent.
            victims = sorted(
                current,
                key=lambda p: (p.phase is not PodPhase.RUNNING, p.meta.creation_time),
                reverse=True,
            )[: -delta]
            for pod in victims:
                self.api.try_delete("Pod", pod.name)
                self.pods_deleted += 1
        return delta

    def _create_pod(self) -> Pod:
        pod_name = f"{self.name}-{next(self._seq):04d}"
        spec = self.spec_factory(pod_name)
        labels = dict(spec.labels)
        labels["replicaset"] = self.name
        spec = PodSpec(image=spec.image, request=spec.request, labels=labels)
        pod = Pod(pod_name, spec, creation_time=self.engine.now)
        self.api.create(pod)
        self.pods_created += 1
        return pod

    # --------------------------------------------------------------- events
    def _on_pod_event(self, event: WatchEvent) -> None:
        pod = event.obj
        if not isinstance(pod, Pod) or pod.meta.labels.get("replicaset") != self.name:
            return
        if event.type is WatchEventType.DELETED or (
            event.type is WatchEventType.MODIFIED and pod.phase.terminal
        ):
            # Replace failed/removed pods to hold the desired count.
            self.engine.call_soon(self._reconcile)
