"""Pods: the primary deployment unit, with the fig-9 lifecycle.

The paper's HTA measures resource-initialization time by watching each
worker-pod's lifecycle through the informer cache:

1. **No Available Node** — the pod is ``Pending`` with a
   ``FailedScheduling`` / *Insufficient Resource* event while the cloud
   controller reserves a machine;
2. **No Container Image** — scheduled, ``Pending`` with a *Pulling Image*
   event while the kubelet pulls;
3. **Worker-Pod Running** — container started;
4. **Worker-Pod Stopped** — HTA drained the worker, the worker process
   exited, and the pod turned ``Succeeded``.

We keep a timestamped event log on each pod so the init-time tracker in
:mod:`repro.hta.inittime` can replay exactly this state machine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional

from repro.cluster.images import ContainerImage
from repro.cluster.objects import KubeObject
from repro.cluster.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.api import ChangeFeed
    from repro.cluster.node import Node


class PodPhase(enum.Enum):
    """Kubernetes pod phases (we do not model Unknown)."""

    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"

    @property
    def terminal(self) -> bool:
        return self in (PodPhase.SUCCEEDED, PodPhase.FAILED)


# Event reasons surfaced to informers; names follow kubectl output.
REASON_FAILED_SCHEDULING = "FailedScheduling"
REASON_SCHEDULED = "Scheduled"
REASON_PULLING = "Pulling"
REASON_PULLED = "Pulled"
REASON_STARTED = "Started"
REASON_COMPLETED = "Completed"
REASON_KILLED = "Killing"


class PodEvent(NamedTuple):
    """A timestamped lifecycle event, as the informer would observe it."""

    time: float
    reason: str
    message: str = ""


@dataclass(frozen=True, slots=True)
class PodSpec:
    """What a pod asks for: an image and a resource request.

    ``request`` follows Kubernetes semantics: the scheduler reserves this
    much on a node; the container may then subdivide it among tasks (Work
    Queue workers do exactly that).
    """

    image: ContainerImage
    request: ResourceVector
    labels: Dict[str, str] = field(default_factory=dict)
    #: Kubernetes nodeSelector: the scheduler only considers nodes whose
    #: labels include every listed pair (how spot-targeted worker pods
    #: are steered onto the preemptible pool, and on-demand pods off it).
    node_selector: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.request.is_nonnegative():
            raise ValueError(f"pod request must be non-negative, got {self.request}")


class Pod(KubeObject):
    """A pod object with phase, node binding, and event log.

    ``cpu_usage_fn`` is attached by the container's workload and read by
    the metrics server; it returns the current CPU usage in cores. A plain
    assignment makes the metrics server poll it on every scrape. A Work
    Queue worker attaches through :meth:`feed_usage` instead and calls
    :meth:`usage_changed` whenever its reading may have moved, so a scrape
    reads only the pods that changed. ``on_stop`` is invoked when the pod
    is deleted while running, letting the container react (a deleted
    worker-pod kills its worker and the tasks on it — the behaviour the
    paper avoids by draining through Work Queue instead).
    """

    __slots__ = (
        "spec", "phase", "node", "events", "scheduled_time", "started_time",
        "finished_time", "_deletion_requested", "_usage_fn", "usage_fed",
        "on_stop", "failed_scheduling", "_feed",
    )

    kind = "Pod"

    def __init__(self, name: str, spec: PodSpec, creation_time: float = 0.0) -> None:
        super().__init__(name, dict(spec.labels), creation_time)
        self.spec = spec
        self.phase = PodPhase.PENDING
        self.node: Optional["Node"] = None
        self.events: List[PodEvent] = []
        #: ``had_event(REASON_FAILED_SCHEDULING)``, set by :meth:`add_event`
        #: (events are append-only, so the flag never clears).
        self.failed_scheduling = False
        self.scheduled_time: Optional[float] = None
        self.started_time: Optional[float] = None
        self.finished_time: Optional[float] = None
        self._deletion_requested = False
        self._usage_fn: Optional[Callable[[], float]] = None
        #: True when the usage source announces its changes through
        #: :meth:`usage_changed` (see :meth:`feed_usage`).
        self.usage_fed = False
        self.on_stop: Optional[Callable[["Pod"], None]] = None
        #: The API server's pod change feed while stored (see
        #: :class:`~repro.cluster.api.ChangeFeed`).
        self._feed: Optional["ChangeFeed"] = None

    @property
    def deletion_requested(self) -> bool:
        """Set by the API server's delete; noted on the pod feed, which
        the autoscaler's pending-pod memos read."""
        return self._deletion_requested

    @deletion_requested.setter
    def deletion_requested(self, value: bool) -> None:
        self._deletion_requested = value
        if self._feed is not None:
            self._feed.note(self)

    # --------------------------------------------------------------- usage
    @property
    def cpu_usage_fn(self) -> Optional[Callable[[], float]]:
        return self._usage_fn

    @cpu_usage_fn.setter
    def cpu_usage_fn(self, fn: Optional[Callable[[], float]]) -> None:
        """Attach a usage source the metrics server polls every scrape."""
        self._usage_fn = fn
        self.usage_fed = False
        self.usage_changed()

    def feed_usage(self, fn: Callable[[], float]) -> None:
        """Attach a usage source that calls :meth:`usage_changed` every
        time its reading may have moved."""
        self._usage_fn = fn
        self.usage_fed = True
        self.usage_changed()

    def detach_workload(self) -> None:
        """Drop the workload's usage source and ``on_stop`` hook once it
        has exited and the pod is terminal or deleted. Neither is read
        then (usage only while Running), and both point back at the
        workload, which holds this pod: kept, they make the pair a cycle
        only the garbage collector frees."""
        self._usage_fn = None
        self.on_stop = None

    def usage_changed(self) -> None:
        """This pod's CPU reading, or whether it is read at all, changed."""
        if self._feed is not None:
            self._feed.note(self)

    # -------------------------------------------------------------- events
    def add_event(self, time: float, reason: str, message: str = "") -> PodEvent:
        ev = PodEvent(time, reason, message)
        self.events.append(ev)
        if reason == REASON_FAILED_SCHEDULING:
            self.failed_scheduling = True
        return ev

    def last_event(self, reason: str) -> Optional[PodEvent]:
        for ev in reversed(self.events):
            if ev.reason == reason:
                return ev
        return None

    def had_event(self, reason: str) -> bool:
        return any(ev.reason == reason for ev in self.events)

    # ------------------------------------------------------------- phases
    def mark_scheduled(self, time: float, node: "Node") -> None:
        if self.phase is not PodPhase.PENDING:
            raise RuntimeError(f"pod {self.name}: cannot schedule in phase {self.phase}")
        self.node = node
        self.scheduled_time = time
        self.add_event(time, REASON_SCHEDULED, f"assigned to {node.name}")

    def mark_running(self, time: float) -> None:
        if self.phase is not PodPhase.PENDING or self.node is None:
            raise RuntimeError(f"pod {self.name}: cannot start in phase {self.phase}")
        self.phase = PodPhase.RUNNING
        self.started_time = time
        self.usage_changed()
        self.add_event(time, REASON_STARTED, "container started")

    def mark_finished(self, time: float, succeeded: bool = True) -> None:
        if self.phase.terminal:
            return
        self.phase = PodPhase.SUCCEEDED if succeeded else PodPhase.FAILED
        self.usage_changed()
        if self.node is not None:
            # Terminal pods drop out of the node's requested() fold.
            self.node.invalidate_requested()
        self.finished_time = time
        self.add_event(time, REASON_COMPLETED if succeeded else REASON_KILLED)

    # ------------------------------------------------------------- derived
    @property
    def ready(self) -> bool:
        return self.phase is PodPhase.RUNNING

    def current_cpu_usage(self) -> float:
        """Instantaneous CPU usage in cores (0 when no workload attached)."""
        if self.phase is not PodPhase.RUNNING or self._usage_fn is None:
            return 0.0
        return self._usage_fn()

    def initialization_interval(self) -> Optional[float]:
        """Creation-to-ready duration, or None if never started.

        HTA uses this (for pods that experienced *No Available Node*) as
        the latest resource-initialization time.
        """
        if self.started_time is None:
            return None
        return self.started_time - self.meta.creation_time

    def experienced_cold_start(self) -> bool:
        """True iff this pod went through the full fig-9 path: waited for a
        node (FailedScheduling) and for an image pull before starting."""
        return (
            self.had_event(REASON_FAILED_SCHEDULING)
            and self.had_event(REASON_PULLING)
            and self.started_time is not None
        )

    def __repr__(self) -> str:  # pragma: no cover
        where = self.node.name if self.node else "unbound"
        return f"<Pod {self.name!r} {self.phase.value} on {where}>"
