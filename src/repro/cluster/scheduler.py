"""The kube-scheduler: binds pending pods to nodes.

Runs as a periodic control loop (plus an immediate kick whenever a pod is
added or a node becomes ready, so small experiments aren't dominated by
sync latency). Pods that fit nowhere get a ``FailedScheduling`` event with
an *Insufficient Resource* message — the fig-9 "No Available Node" state
that both the cloud controller and HTA's init-time tracker key off.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase, REASON_FAILED_SCHEDULING
from repro.cluster.sched_index import list_key, unschedulable_recorded
from repro.sim.engine import Engine, PeriodicTask
from repro.telemetry.events import NULL_TRACER, Tracer


class KubeScheduler:
    """Binds pending pods to the ready node with the most or fewest free
    cores.

    ``strategy`` selects the node-scoring policy among nodes that fit the
    pod's request and node selector:

    * ``"least-requested"`` (default, mirrors kube-scheduler's spreading):
      pick the node with the most free CPU;
    * ``"binpack"``: pick the node with the least free CPU (used by the
      ablation benchmarks to show HTA is policy-agnostic).

    Ties on free cores go to the larger name (least-requested) or the
    smaller one (binpack). Both choices are walks of the API server's
    free-capacity index, and a pass takes the pending pods from its
    pending-pod index (:mod:`repro.cluster.sched_index`).
    """

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        *,
        sync_period: float = 1.0,
        strategy: str = "least-requested",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if strategy not in ("least-requested", "binpack"):
            raise ValueError(f"unknown scheduling strategy {strategy!r}")
        self.engine = engine
        self.api = api
        self.strategy = strategy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.binds = 0
        #: (Pod, Node) kind versions as of the end of the last pass. Every
        #: cluster mutation a pass can observe (pod added/bound/phased,
        #: node ready/cordoned/deleted) flows through the API server's
        #: notify and bumps one of the two, so matching versions mean the
        #: pass would repeat the previous one exactly: bind nothing and
        #: re-record nothing (FailedScheduling events are once-per-episode).
        self._synced_state: Optional[tuple] = None
        self._loop = PeriodicTask(engine, sync_period, self.sync, start_after=0.0)
        api.watch("Pod", self._on_pod_event, replay_existing=False)
        api.watch("Node", self._on_node_event, replay_existing=False)

    def stop(self) -> None:
        self._loop.stop()

    # --------------------------------------------------------------- events
    def _on_pod_event(self, event: WatchEvent) -> None:
        if event.type is WatchEventType.ADDED:
            self.sync()

    def _on_node_event(self, event: WatchEvent) -> None:
        if event.type in (WatchEventType.ADDED, WatchEventType.MODIFIED):
            node = event.obj
            if isinstance(node, Node) and node.ready:
                self.sync()

    # ----------------------------------------------------------------- sync
    def sync(self) -> int:
        """One scheduling pass; returns the number of pods bound.

        Pods are taken in list order (``(creation_time, name)``) by
        merging the heads of the pending index's signature buckets. A
        live bucket offers its first pod for a node. Once a signature
        finds no seat, capacity can only shrink for the rest of the pass,
        so the bucket offers only its pods still owing a
        ``FailedScheduling`` event, each recorded at its list position.
        """
        state = (self.api.kind_version("Pod"), self.api.kind_version("Node"))
        if state == self._synced_state:
            return 0  # nothing changed since the last pass; see __init__
        bound = 0
        index = self.api.pending_index
        heap = [
            (list_key(bucket.pods[0]), n, bucket, False)
            for n, bucket in enumerate(index.buckets())
        ]
        heapq.heapify(heap)
        while heap:
            _, n, bucket, failed = heap[0]
            taken_from = bucket.fresh if failed else bucket.pods
            pod = taken_from[0]
            if (
                pod.phase is not PodPhase.PENDING
                or pod.node is not None
                or (failed and unschedulable_recorded(pod))
            ):
                # Changed without an API write (a direct mark_scheduled
                # or add_event): re-file the entry; the pass skips it.
                index.update(pod)
            elif failed:
                self._record_unschedulable(pod)
            else:
                node = self._select_node(pod)
                if node is None:
                    failed = True
                    self._record_unschedulable(pod)
                else:
                    pod.mark_scheduled(self.engine.now, node)
                    node.bind(pod)
                    self.api.mark_modified(pod)
                    self.binds += 1
                    bound += 1
                    if self.tracer.enabled:
                        self.tracer.emit(
                            "cluster", "scheduler.bind", pod=pod.name, node=node.name
                        )
            queue = bucket.fresh if failed else bucket.pods
            if not queue:
                heapq.heappop(heap)
            elif queue is taken_from and queue[0] is pod:
                raise RuntimeError(f"pending index did not advance past pod {pod.name}")
            else:
                heapq.heapreplace(heap, (list_key(queue[0]), n, bucket, failed))
        # Recompute: the pass itself bumps versions (binds, events).
        self._synced_state = (
            self.api.kind_version("Pod"),
            self.api.kind_version("Node"),
        )
        return bound

    def _select_node(self, pod: Pod) -> Optional[Node]:
        """The fitting node with the most (least-requested) or fewest
        (binpack) free cores, ties broken by name the same way."""
        request = pod.spec.request
        selector = pod.spec.node_selector
        index = self.api.capacity_index
        if self.strategy == "least-requested":
            candidates = index.descending(request.cores)
        else:
            candidates = index.ascending(request.cores)
        for node in candidates:
            if selector:
                labels = node.meta.labels
                if not all(labels.get(k) == v for k, v in selector.items()):
                    continue
            if node.can_fit(request):
                return node
        return None

    def _record_unschedulable(self, pod: Pod) -> None:
        if pod.phase is not PodPhase.PENDING:
            return
        # Emit once per pod per unschedulable episode (a fresh event is
        # appended again only after the pod has been scheduled and somehow
        # returned; for our lifecycle, once is exactly right).
        if pod.events and pod.events[-1].reason == REASON_FAILED_SCHEDULING:
            return
        pod.add_event(self.engine.now, REASON_FAILED_SCHEDULING, "Insufficient Resource")
        if self.tracer.enabled:
            self.tracer.emit("cluster", "scheduler.unschedulable", pod=pod.name)
        self.api.mark_modified(pod)
