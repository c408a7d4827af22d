"""Nodes and machine types.

The paper evaluates on GKE ``n1-standard-4`` instances (4 vCPU, 15 GB RAM,
100 GB SSD) for the main experiments and 3-vCPU/12 GB nodes for the fig-4
sizing study; both are provided as ready-made :class:`MachineType`
constants. A node tracks its bound pods and allocatable capacity; the
kubelet (one per node) handles image caching and container start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.cluster.objects import KubeObject
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.api import ChangeFeed, NodeCounts
    from repro.cluster.sched_index import FreeCapacityIndex


@dataclass(frozen=True, slots=True)
class MachineType:
    """A cloud machine shape, with capacity and network characteristics."""

    name: str
    capacity: ResourceVector
    # Bandwidth of the node's NIC; caps each node's share of master egress.
    nic_bandwidth_mbps: float = 1000.0
    # System/kubelet reservation withheld from pods (GKE reserves a slice).
    system_reserved: ResourceVector = ResourceVector.zero()

    @property
    def allocatable(self) -> ResourceVector:
        alloc = self.capacity - self.system_reserved
        if not alloc.is_nonnegative():
            raise ValueError(f"machine type {self.name}: reservation exceeds capacity")
        return alloc


#: The paper's main evaluation instance: 4 vCPU, 15 GB RAM, 100 GB SSD.
N1_STANDARD_4 = MachineType(
    name="n1-standard-4",
    capacity=ResourceVector(cores=4, memory_mb=15 * 1024, disk_mb=100 * 1024),
)

#: The fig-4 sizing-study instance: 3 vCPU, 12 GB RAM.
GKE_SMALL_3CPU = MachineType(
    name="gke-small-3cpu",
    capacity=ResourceVector(cores=3, memory_mb=12 * 1024, disk_mb=100 * 1024),
)

#: n1-standard-4 with GKE's system/kubelet reservation withheld: 3 cores
#: and ~14 GB allocatable per node. Twenty such nodes give the "20 nodes,
#: 60 cores" capacity limit the paper quotes for fig 10.
N1_STANDARD_4_RESERVED = MachineType(
    name="n1-standard-4-reserved",
    capacity=ResourceVector(cores=4, memory_mb=15 * 1024, disk_mb=100 * 1024),
    system_reserved=ResourceVector(cores=1, memory_mb=1024, disk_mb=10 * 1024),
)


#: Node/pod-selector label distinguishing the pools (GKE surfaces the
#: equivalent ``cloud.google.com/gke-preemptible`` label).
PREEMPTIBLE_LABEL = "preemptible"


class Node(KubeObject):
    """A cluster node: allocatable capacity, bound pods, image cache."""

    __slots__ = (
        "machine_type", "preemptible", "preemption_notice_at",
        "preemption_grace_s", "_ready", "ready_time", "pods",
        "_requested_cache", "cached_images", "_unschedulable", "_deleted",
        "_capacity_index", "_counts", "_feed",
    )

    kind = "Node"

    def __init__(
        self,
        name: str,
        machine_type: MachineType = N1_STANDARD_4,
        creation_time: float = 0.0,
        *,
        preemptible: bool = False,
    ) -> None:
        super().__init__(
            name,
            {
                "machine-type": machine_type.name,
                PREEMPTIBLE_LABEL: "true" if preemptible else "false",
            },
            creation_time,
        )
        self.machine_type = machine_type
        #: Spot/preemptible capacity: the provider may reclaim this node
        #: at any time with only a short grace notice.
        self.preemptible = preemptible
        #: Set when the provider fires the reclamation notice; the node is
        #: cordoned and will be killed ``grace_period_s`` later.
        self.preemption_notice_at: Optional[float] = None
        #: The notice's grace window (how long until the kill); set
        #: alongside ``preemption_notice_at`` so responders can decide
        #: which in-flight work still has time to finish.
        self.preemption_grace_s: Optional[float] = None
        #: The API server's node tally while the node is stored there;
        #: told whenever ``ready`` or ``deleted`` flips.
        self._counts: Optional["NodeCounts"] = None
        #: The API server's node change feed while the node is stored
        #: there; told whenever ``ready``, ``deleted``,
        #: ``unschedulable`` or the ``requested()`` fold changes.
        self._feed: Optional["ChangeFeed"] = None
        self._ready = False
        self.ready_time: Optional[float] = None
        self.pods: List[Pod] = []
        #: Memoized :meth:`requested` fold; dropped on bind/unbind and on
        #: a bound pod turning terminal (the only events that change the
        #: fold). Recomputed with the original loop so the cached floats
        #: are bit-identical to an on-demand fold.
        self._requested_cache: Optional[ResourceVector] = None
        self.cached_images: Set[str] = set()
        self._unschedulable = False  # cordoned during drain-for-removal
        self._deleted = False
        #: The API server's free-capacity index while the node is stored
        #: there; told whenever the requested() fold is dropped.
        self._capacity_index: Optional["FreeCapacityIndex"] = None

    # ---------------------------------------------------------------- flags
    @property
    def ready(self) -> bool:
        return self._ready

    @ready.setter
    def ready(self, value: bool) -> None:
        counts = self._counts
        if counts is None:
            self._ready = value
        else:
            counts.tally(self, -1)
            self._ready = value
            counts.tally(self, 1)
        if self._feed is not None:
            self._feed.note(self)

    @property
    def deleted(self) -> bool:
        """Flagged gone (crashed, preempted, removed); the API server may
        still store the node until the delete that follows."""
        return self._deleted

    @deleted.setter
    def deleted(self, value: bool) -> None:
        counts = self._counts
        if counts is None:
            self._deleted = value
        else:
            counts.tally(self, -1)
            self._deleted = value
            counts.tally(self, 1)
        if self._feed is not None:
            self._feed.note(self)

    @property
    def unschedulable(self) -> bool:
        """Cordoned: the scheduler binds nothing new here."""
        return self._unschedulable

    @unschedulable.setter
    def unschedulable(self, value: bool) -> None:
        self._unschedulable = value
        if self._feed is not None:
            self._feed.note(self)

    # ------------------------------------------------------------- capacity
    @property
    def capacity(self) -> ResourceVector:
        return self.machine_type.capacity

    @property
    def allocatable(self) -> ResourceVector:
        return self.machine_type.allocatable

    def requested(self) -> ResourceVector:
        """Sum of resource requests of non-terminal pods bound here."""
        cached = self._requested_cache
        if cached is None:
            cached = ResourceVector.zero()
            for pod in self.pods:
                if not pod.phase.terminal:
                    cached = cached + pod.spec.request
            self._requested_cache = cached
        return cached

    def invalidate_requested(self) -> None:
        """The bound-pod set (or a bound pod's phase) changed."""
        self._requested_cache = None
        if self._capacity_index is not None:
            self._capacity_index.mark_dirty(self)
        if self._feed is not None:
            self._feed.note(self)

    def free(self) -> ResourceVector:
        return (self.allocatable - self.requested()).clamp_floor(0.0)

    def can_fit(self, request: ResourceVector) -> bool:
        return (
            self._ready
            and not self._unschedulable
            and not self._deleted
            and request.fits_in(self.allocatable - self.requested())
        )

    # ----------------------------------------------------------------- pods
    def bind(self, pod: Pod) -> None:
        if pod in self.pods:
            raise RuntimeError(f"pod {pod.name} already bound to {self.name}")
        self.pods.append(pod)
        self.invalidate_requested()

    def unbind(self, pod: Pod) -> None:
        try:
            self.pods.remove(pod)
        except ValueError:
            pass
        self.invalidate_requested()

    def active_pods(self) -> List[Pod]:
        return [p for p in self.pods if not p.phase.terminal]

    def is_idle(self) -> bool:
        """No non-terminal pods bound: a candidate for scale-down."""
        return self.ready and not self.active_pods()

    def cpu_usage(self) -> float:
        """Instantaneous CPU usage across running pods, in cores."""
        return sum(p.current_cpu_usage() for p in self.pods if p.phase is PodPhase.RUNNING)

    def utilization(self) -> float:
        """CPU usage as a fraction of node capacity (0..1)."""
        cap = self.capacity.cores
        return self.cpu_usage() / cap if cap > 0 else 0.0

    def describe(self) -> Dict[str, object]:
        """Diagnostic snapshot (used by experiment reports and tests)."""
        return {
            "name": self.name,
            "machine_type": self.machine_type.name,
            "ready": self.ready,
            "preemptible": self.preemptible,
            "pods": [p.name for p in self.active_pods()],
            "requested": self.requested(),
            "free": self.free(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        state = "ready" if self.ready else "not-ready"
        return f"<Node {self.name!r} {state} pods={len(self.active_pods())}>"
