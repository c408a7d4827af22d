"""The StatefulSet controller: sticky-identity pods with stable storage.

§V-A: "To avoid loss of intermediate data and ensure a restarted master
pod can run on the same physical node with the same identity, we
encapsulate the master pod inside a StatefulSet and dump intermediate
data into a persistent volume."

The controller maintains ``replicas`` pods named ``<set>-0 … <set>-N``
from the set's template. When a pod dies (node crash, deletion), its
*replacement keeps the same ordinal name* — sticky identity — and is
recreated after a restart backoff. The persistent volume's data survival
is the consumer's contract: whoever binds a process to the pod (e.g.
:class:`repro.hta.deployment.MasterDeployment`) keeps its state across
restarts, exactly as a volume-backed Work Queue master does.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType
from repro.cluster.objects import StatefulSet
from repro.cluster.pod import Pod, PodSpec
from repro.sim.engine import Engine


class StatefulSetController:
    """Reconciles every StatefulSet object in the API server."""

    #: Delay before a failed pod's sticky replacement is created
    #: (crash-loop damping; Kubernetes applies a similar backoff).
    RESTART_BACKOFF_S = 10.0

    def __init__(self, engine: Engine, api: KubeApiServer) -> None:
        self.engine = engine
        self.api = api
        self.pods_created = 0
        self.pods_replaced = 0
        self._pending_restart: Dict[str, bool] = {}
        api.watch("StatefulSet", self._on_set_event, replay_existing=True)
        api.watch("Pod", self._on_pod_event, replay_existing=False)

    # ------------------------------------------------------------ reconcile
    def _on_set_event(self, event: WatchEvent) -> None:
        sset = event.obj
        if not isinstance(sset, StatefulSet):
            return
        if event.type in (WatchEventType.ADDED, WatchEventType.MODIFIED):
            self._reconcile(sset)

    def _on_pod_event(self, event: WatchEvent) -> None:
        pod = event.obj
        if not isinstance(pod, Pod):
            return
        set_name = pod.meta.labels.get("statefulset")
        if set_name is None:
            return
        sset = self.api.try_get("StatefulSet", set_name)
        if not isinstance(sset, StatefulSet):
            return
        if event.type is WatchEventType.DELETED or (
            event.type is WatchEventType.MODIFIED and pod.phase.terminal
        ):
            # Sticky replacement, after a backoff; coalesce duplicates.
            if not self._pending_restart.get(pod.name):
                self._pending_restart[pod.name] = True
                self.engine.call_in(
                    self.RESTART_BACKOFF_S, self._restart, sset, pod.name
                )
        self._update_ready_count(sset)
        if event.type is WatchEventType.MODIFIED and pod.ready:
            self.api.mark_modified(sset)

    def _restart(self, sset: StatefulSet, pod_name: str) -> None:
        self._pending_restart.pop(pod_name, None)
        if self.api.try_get("StatefulSet", sset.name) is not sset:
            return  # set deleted meanwhile
        # Remove the terminal incarnation so the name is free again.
        existing = self.api.try_get("Pod", pod_name)
        if isinstance(existing, Pod):
            if not existing.phase.terminal:
                return  # someone else already replaced it
            self.api.try_delete("Pod", pod_name)
        self._create_pod(sset, pod_name, replacement=True)

    def _reconcile(self, sset: StatefulSet) -> None:
        if sset.template is None:
            return
        for ordinal in range(sset.replicas):
            pod_name = f"{sset.name}-{ordinal}"
            existing = self.api.try_get("Pod", pod_name)
            if existing is None and not self._pending_restart.get(pod_name):
                self._create_pod(sset, pod_name)

    def _create_pod(self, sset: StatefulSet, pod_name: str, replacement: bool = False) -> Pod:
        template = sset.template
        assert isinstance(template, PodSpec)
        labels = dict(template.labels)
        labels["statefulset"] = sset.name
        spec = PodSpec(image=template.image, request=template.request, labels=labels)
        pod = Pod(pod_name, spec, creation_time=self.engine.now)
        self.api.create(pod)
        self.pods_created += 1
        if replacement:
            self.pods_replaced += 1
        return pod

    def _update_ready_count(self, sset: StatefulSet) -> None:
        pods = self.pods_of(sset)
        sset.ready_replicas = sum(1 for p in pods if p.ready)

    # ---------------------------------------------------------------- reads
    def pods_of(self, sset: StatefulSet) -> List[Pod]:
        return [
            p
            for p in self.api.pods({"statefulset": sset.name})
            if not p.phase.terminal
        ]
