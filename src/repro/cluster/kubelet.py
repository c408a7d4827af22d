"""Per-node kubelet: image pulls, container start/stop, node image cache.

The kubelet watches for pods scheduled onto its node. If the image is not
in the node-local cache it emits the fig-9 ``Pulling`` event and pulls for
``registry.pull_duration(image)`` seconds (the "No Container Image"
state); then the container starts and the pod turns ``Running``.
Stopping a container (the workload exited, or a drain completed) turns
the pod ``Succeeded``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType
from repro.cluster.images import ImageRegistry
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase, REASON_PULLED, REASON_PULLING
from repro.sim.engine import Engine, ScheduledEvent
from repro.telemetry.events import NULL_TRACER, Tracer


class Kubelet:
    """The agent for a single node."""

    #: Seconds between image ready and container process start (runtime
    #: setup: container create, volume mounts, CNI). Small and constant.
    CONTAINER_START_LATENCY = 1.0

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        node: Node,
        registry: ImageRegistry,
        *,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.api = api
        self.node = node
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._admitted: Set[str] = set()
        self._pending_starts: Dict[str, ScheduledEvent] = {}
        # Node-scoped watch: this kubelet only ever reacts to pods bound
        # to its node, so the API server skips the per-kubelet fan-out.
        api.watch_pods_on_node(node, self._on_pod_event, replay_existing=True)

    def close(self) -> None:
        """The node is gone: cancel the starts still pending here, then
        drop the node-keyed pod watch. The order matters, because without
        the watch a later pod deletion could no longer cancel a start."""
        if self._pending_starts:
            for handle in self._pending_starts.values():
                handle.cancel()
            self._pending_starts.clear()
        self.api.unwatch_pods_on_node(self.node, self._on_pod_event)

    # --------------------------------------------------------------- events
    def _on_pod_event(self, event: WatchEvent) -> None:
        pod = event.obj
        if not isinstance(pod, Pod):
            return
        if event.type is WatchEventType.DELETED:
            handle = self._pending_starts.pop(pod.name, None)
            if handle is not None:
                handle.cancel()
            self._admitted.discard(pod.name)
            return
        if pod.node is not self.node or pod.name in self._admitted:
            return
        if pod.phase is PodPhase.PENDING:
            self._admitted.add(pod.name)
            self._admit(pod)

    # ---------------------------------------------------------------- admit
    def _admit(self, pod: Pod) -> None:
        image = pod.spec.image
        if image.name in self.node.cached_images:
            self._schedule_start(pod, self.CONTAINER_START_LATENCY)
            return
        pod.add_event(self.engine.now, REASON_PULLING, f"pulling image {image.name}")
        self.api.mark_modified(pod)
        duration = self.registry.pull_duration(image)
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster", "kubelet.pulling",
                pod=pod.name, node=self.node.name,
                image=image.name, duration_s=duration,
            )
        self._pending_starts[pod.name] = self.engine.call_in(
            duration, self._image_pulled, pod
        )

    def _image_pulled(self, pod: Pod) -> None:
        self._pending_starts.pop(pod.name, None)
        if pod.phase.terminal or pod.deletion_requested:
            return
        self.node.cached_images.add(pod.spec.image.name)
        pod.add_event(self.engine.now, REASON_PULLED, f"pulled {pod.spec.image.name}")
        self.api.mark_modified(pod)
        self._schedule_start(pod, self.CONTAINER_START_LATENCY)

    def _schedule_start(self, pod: Pod, delay: float) -> None:
        self._pending_starts[pod.name] = self.engine.call_in(delay, self._start, pod)

    def _start(self, pod: Pod) -> None:
        self._pending_starts.pop(pod.name, None)
        if pod.phase.terminal or pod.deletion_requested:
            return
        pod.mark_running(self.engine.now)
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster", "kubelet.running", pod=pod.name, node=self.node.name
            )
        self.api.mark_modified(pod)

    # ----------------------------------------------------------------- stop
    def stop_container(self, pod: Pod, succeeded: bool = True) -> None:
        """Terminate the pod's container; the pod turns Succeeded/Failed.

        Called by the workload runtime when the worker process exits (e.g.
        after HTA drains it). The terminal pod stays bound until the API
        delete removes it, matching Kubernetes' completed-pod semantics.
        """
        if pod.node is not self.node:
            raise RuntimeError(f"pod {pod.name} is not on node {self.node.name}")
        if pod.phase.terminal:
            return
        pod.mark_finished(self.engine.now, succeeded=succeeded)
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster", "kubelet.stopped",
                pod=pod.name, node=self.node.name, succeeded=succeeded,
            )
        self.api.mark_modified(pod)


class KubeletManager:
    """Creates a :class:`Kubelet` for every node that joins the cluster."""

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        registry: ImageRegistry,
        *,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.api = api
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.kubelets: Dict[str, Kubelet] = {}
        api.watch("Node", self._on_node_event, replay_existing=True)

    def _on_node_event(self, event: WatchEvent) -> None:
        node = event.obj
        if not isinstance(node, Node):
            return
        if event.type is WatchEventType.DELETED:
            kubelet = self.kubelets.pop(node.name, None)
            if kubelet is not None:
                kubelet.close()
        elif node.name not in self.kubelets:
            self.kubelets[node.name] = Kubelet(
                self.engine, self.api, node, self.registry, tracer=self.tracer
            )

    def for_node(self, node: Node) -> Optional[Kubelet]:
        return self.kubelets.get(node.name)

    def for_pod(self, pod: Pod) -> Optional[Kubelet]:
        return self.kubelets.get(pod.node.name) if pod.node is not None else None
