"""The autoscaling sweeps as literal scans, kept as a test oracle.

Before the change-fed sweeps, every cluster-autoscaler sync listed the
pending pods and read ``Node.free()`` on every ready node to size a
scale-up it then clamped to the pool's headroom, and scanned every node
for scale-down. HTA's pending-pod count filtered the whole worker-pod
selector snapshot, and the waiting-cores gauge folded the whole queue.
This module keeps those bodies verbatim:

* :class:`LiteralAutoscaler` — ``CloudController._scale_up``,
  ``_scale_up_pool``, ``_nodes_needed`` and ``_scale_down``, run against
  a live controller's state with a shadow ``_idle_since``. Reservations
  and removals are recorded, not performed, so the oracle can run just
  before the controller's own pass and predict it;
* :func:`provisioner_pending_pods` — ``WorkerProvisioner.pending_pods``
  as a filter over the app selector's pods;
* :func:`cores_waiting` — ``DispatchCore.cores_waiting`` as the fold in
  queue order; :func:`queue_counts` recounts what the queue maintains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.node import MachineType, Node, PREEMPTIBLE_LABEL
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.resources import ResourceVector
from repro.wq.dispatch import dyadic_cores


class LiteralAutoscaler:
    """The list-scanning autoscaler passes over a live controller.

    Reads go to the controller (config, API server, node counts,
    reservations in flight); the scale-down timers live in this object's
    own ``_idle_since``. ``_reserve_node`` and ``_remove_node`` record
    what the controller would do: ``reserved`` lists the pool of each
    reservation in order, ``removed`` each removal attempt with its
    result, and ``visited`` the nodes the last scale-down scan looked at.
    """

    def __init__(self, cloud) -> None:
        self.cloud = cloud
        self.api = cloud.api
        self.config = cloud.config
        self.engine = cloud.engine
        self._idle_since: Dict[str, float] = {}
        self.reserved: List[bool] = []
        self.removed: List[Tuple[str, bool]] = []
        self.visited: List[str] = []

    # ------------------------------------------------------ controller state
    @property
    def _inflight(self) -> int:
        return self.cloud._inflight + sum(1 for spot in self.reserved if not spot)

    @property
    def _inflight_spot(self) -> int:
        return self.cloud._inflight_spot + sum(1 for spot in self.reserved if spot)

    def ondemand_node_count(self) -> int:
        return self.cloud.ondemand_node_count()

    def spot_node_count(self) -> int:
        return self.cloud.spot_node_count()

    def target_count(self) -> int:
        return self.ondemand_node_count() + self._inflight

    def spot_target_count(self) -> int:
        return self.spot_node_count() + self._inflight_spot

    @property
    def spot_machine_type(self) -> MachineType:
        return self.cloud.spot_machine_type

    def _reserve_node(self, *, preemptible: bool = False) -> None:
        self.reserved.append(preemptible)

    def _remove_node(self, node: Node) -> bool:
        if node.active_pods():
            self.removed.append((node.name, False))
            return False
        self._idle_since.pop(node.name, None)
        self.removed.append((node.name, True))
        return True

    # ------------------------------------------------------------- scale-up
    @staticmethod
    def _wants_spot(pod: Pod) -> bool:
        return pod.spec.node_selector.get(PREEMPTIBLE_LABEL) == "true"

    def _scale_up(self) -> None:
        pending = [
            p
            for p in self.api.pending_pods()
            if p.had_event("FailedScheduling") and not p.deletion_requested
        ]
        if not pending:
            return
        spot_pending = [p for p in pending if self._wants_spot(p)]
        ondemand_pending = [p for p in pending if not self._wants_spot(p)]
        self._scale_up_pool(ondemand_pending, preemptible=False)
        if self.config.preemptible is not None:
            self._scale_up_pool(spot_pending, preemptible=True)

    def _scale_up_pool(self, pending: List[Pod], *, preemptible: bool) -> None:
        if not pending:
            return
        if preemptible:
            spot = self.config.preemptible
            assert spot is not None
            machine_type = self.spot_machine_type
            inflight = self._inflight_spot
            headroom = spot.max_nodes - self.spot_target_count()
        else:
            machine_type = self.config.machine_type
            inflight = self._inflight
            headroom = self.config.max_nodes - self.target_count()
        needed = self._nodes_needed(pending, machine_type, preemptible=preemptible)
        needed -= inflight
        to_add = max(0, min(needed, headroom))
        if self.config.max_concurrent_reservations is not None:
            batch_room = self.config.max_concurrent_reservations - (
                self._inflight + self._inflight_spot
            )
            to_add = max(0, min(to_add, batch_room))
        for _ in range(to_add):
            self._reserve_node(preemptible=preemptible)

    def _nodes_needed(
        self, pending: List[Pod], machine_type: MachineType, *, preemptible: bool
    ) -> int:
        alloc = machine_type.allocatable
        alloc_c, alloc_m, alloc_d = alloc.cores, alloc.memory_mb, alloc.disk_mb
        eps = 1e-9  # fits_in's float-drift epsilon
        requests = sorted(
            (p.spec.request for p in pending),
            key=lambda r: r.cores,
            reverse=True,
        )
        free_c: List[float] = []
        free_m: List[float] = []
        free_d: List[float] = []
        for n in self.api.ready_nodes():
            if not n.unschedulable and n.preemptible == preemptible:
                free = n.free()
                free_c.append(free.cores)
                free_m.append(free.memory_mb)
                free_d.append(free.disk_mb)
        bins_c: List[float] = []
        bins_m: List[float] = []
        bins_d: List[float] = []
        unpackable = 0
        prev_req: Optional[ResourceVector] = None
        free_start = 0      # resume index into the existing-free scan
        free_exhausted = False  # previous identical request fit no node
        bins_start = 0      # resume index into the new-bins scan
        for req in requests:
            if req != prev_req:
                prev_req = req
                free_start = 0
                free_exhausted = False
                bins_start = 0
            if not (
                req.cores <= alloc_c + eps
                and req.memory_mb <= alloc_m + eps
                and req.disk_mb <= alloc_d + eps
            ):
                unpackable += 1  # can never fit; don't provision for it
                continue
            req_c, req_m, req_d = req.cores, req.memory_mb, req.disk_mb
            placed = False
            if not free_exhausted:
                for i in range(free_start, len(free_c)):
                    if (
                        req_c <= free_c[i] + eps
                        and req_m <= free_m[i] + eps
                        and req_d <= free_d[i] + eps
                    ):
                        free_c[i] = max(free_c[i] - req_c, 0.0)
                        free_m[i] = max(free_m[i] - req_m, 0.0)
                        free_d[i] = max(free_d[i] - req_d, 0.0)
                        free_start = i
                        placed = True
                        break
                else:
                    free_exhausted = True
            if placed:
                continue
            for i in range(bins_start, len(bins_c)):
                if (
                    req_c <= (alloc_c - bins_c[i]) + eps
                    and req_m <= (alloc_m - bins_m[i]) + eps
                    and req_d <= (alloc_d - bins_d[i]) + eps
                ):
                    bins_c[i] = bins_c[i] + req_c
                    bins_m[i] = bins_m[i] + req_m
                    bins_d[i] = bins_d[i] + req_d
                    bins_start = i
                    break
            else:
                bins_c.append(req_c)
                bins_m.append(req_m)
                bins_d.append(req_d)
                bins_start = len(bins_c) - 1
        return len(bins_c)

    # ----------------------------------------------------------- scale-down
    def _scale_down(self) -> None:
        self.visited = []
        if any(
            p.had_event("FailedScheduling") and not p.deletion_requested
            for p in self.api.pending_pods()
        ):
            self._idle_since.clear()
            return
        nodes = [
            n
            for n in self.api.nodes()
            if not n.deleted and n.preemption_notice_at is None
        ]
        self.visited = [n.name for n in nodes]
        now = self.engine.now
        removable: List[Node] = []
        for node in nodes:
            if node.is_idle():
                since = self._idle_since.setdefault(node.name, now)
                if now - since >= self.config.idle_timeout_s:
                    removable.append(node)
            else:
                self._idle_since.pop(node.name, None)
        removable.sort(key=lambda n: n.meta.creation_time, reverse=True)
        ondemand = self.ondemand_node_count()
        for node in removable:
            if node.preemptible:
                self._remove_node(node)
            elif ondemand > self.config.min_nodes and self._remove_node(node):
                ondemand -= 1


def provisioner_pending_pods(provisioner) -> List[Pod]:
    """``WorkerProvisioner.pending_pods`` over the selector snapshot."""
    my_pods = [
        p
        for p in provisioner.api.pods({"app": provisioner.app_label})
        if p.name.startswith(provisioner.name_prefix)
    ]
    return [p for p in my_pods if p.phase is PodPhase.PENDING]


def pending_selected(api, selector: Dict[str, str]) -> List[Pod]:
    """``KubeApiServer.list_pending`` as a filter over every pod."""
    return [
        p
        for p in api.pods()
        if p.meta.matches(selector) and p.phase is PodPhase.PENDING
    ]


def cores_waiting(core) -> float:
    """``DispatchCore.cores_waiting``: the fold in queue order."""
    return sum(t.footprint.cores for t in core.queue)


def queue_counts(queue) -> Tuple[int, int]:
    """``(n_float, n_odd)`` of a ``TaskQueue``'s core total, recounted."""
    cores = [t.footprint.cores for t in queue]
    dyadic = [c for c in cores if dyadic_cores(c)]
    return (
        sum(1 for c in dyadic if type(c) is float),
        len(cores) - len(dyadic),
    )
