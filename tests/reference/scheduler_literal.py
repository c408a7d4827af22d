"""The list-scanning kube-scheduler pass, kept as a test oracle.

:class:`LiteralScheduler` holds ``KubeScheduler.sync``,
``_selector_matches``, ``_select_node`` and ``_record_unschedulable``
exactly as they were before the API server kept a free-capacity node
index and signature-bucketed pending pods: one rebuild of the pending
list from every pod per pass, and a scan of every node per pending pod
with ``max``/``min`` over the candidates. The method bodies are
verbatim; only the state they read is re-homed.

It is a :class:`~repro.cluster.scheduler.KubeScheduler` (same loop, same
watch kicks, same version skip) whose ``api`` is wrapped so
``pending_pods()`` is the literal filter over ``api.pods()`` instead of
the index. Every write still goes to the real API server.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.api import KubeApiServer
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase, REASON_FAILED_SCHEDULING
from repro.cluster.scheduler import KubeScheduler


class LiteralApi:
    """An API server whose pending list is rebuilt from every pod."""

    def __init__(self, api: KubeApiServer) -> None:
        self._api = api

    def __getattr__(self, name):
        return getattr(self._api, name)

    def pending_pods(self) -> List[Pod]:
        return [p for p in self._api.pods() if p.phase is PodPhase.PENDING and p.node is None]


class LiteralScheduler(KubeScheduler):
    """A scheduler running the list-scanning pass."""

    def __init__(self, engine, api: KubeApiServer, **kwargs) -> None:
        super().__init__(engine, api, **kwargs)
        self.api = LiteralApi(api)

    # ------------------------------------------------- verbatim from here
    def sync(self) -> int:
        """One scheduling pass; returns the number of pods bound."""
        state = (self.api.kind_version("Pod"), self.api.kind_version("Node"))
        if state == self._synced_state:
            return 0  # nothing changed since the last pass; see __init__
        bound = 0
        pending = self.api.pending_pods()
        if not pending:
            self._synced_state = state
            return 0
        # One relist per pass: binding mutates node *state*, never the
        # node set, and can_fit re-checks ready/cordoned/deleted per pod,
        # so the per-pod relist the loop used to do was pure overhead.
        nodes = self.api.nodes()
        # Within a pass capacity only shrinks, so once a request (plus
        # node-selector) finds no seat, every identical pending pod after
        # it fails too — skip their node scans, but still record the
        # FailedScheduling event per pod exactly as before.
        unplaceable: set = set()
        for pod in pending:
            selector = pod.spec.node_selector
            sig = (
                pod.spec.request,
                tuple(sorted(selector.items())) if selector else None,
            )
            if sig in unplaceable:
                # Inline _record_unschedulable's common early-exit (the
                # episode is already recorded) — at depth this branch runs
                # once per pending pod per pass.
                if not (
                    pod.events
                    and pod.events[-1].reason == REASON_FAILED_SCHEDULING
                ):
                    self._record_unschedulable(pod)
                continue
            node = self._select_node(pod, nodes)
            if node is None:
                unplaceable.add(sig)
                self._record_unschedulable(pod)
                continue
            pod.mark_scheduled(self.engine.now, node)
            node.bind(pod)
            self.api.mark_modified(pod)
            self.binds += 1
            bound += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "cluster", "scheduler.bind", pod=pod.name, node=node.name
                )
        # Recompute: the pass itself bumps versions (binds, events).
        self._synced_state = (
            self.api.kind_version("Pod"),
            self.api.kind_version("Node"),
        )
        return bound

    @staticmethod
    def _selector_matches(pod: Pod, node: Node) -> bool:
        selector = pod.spec.node_selector
        if not selector:
            return True
        labels = node.meta.labels
        return all(labels.get(k) == v for k, v in selector.items())

    def _select_node(self, pod: Pod, nodes: Optional[List[Node]] = None) -> Optional[Node]:
        if nodes is None:
            nodes = self.api.ready_nodes()
        candidates: List[Node] = [
            n
            for n in nodes
            if self._selector_matches(pod, n) and n.can_fit(pod.spec.request)
        ]
        if not candidates:
            return None
        if self.strategy == "least-requested":
            return max(candidates, key=lambda n: (n.free().cores, n.name))
        return min(candidates, key=lambda n: (n.free().cores, n.name))

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
