"""Base Kubernetes-style API objects.

Every object stored in the API server derives from :class:`KubeObject`:
it has an :class:`ObjectMeta` (name, labels, creation time) and a
``kind``. The paper uses three object kinds beyond Pod and Node —
StatefulSet (wrapping the Work Queue master for sticky identity +
persistent volume), and Services (master access from inside/outside the
cluster) — which we model structurally so HTA's deployment and clean-up
stages manipulate the same objects the real middleware would.
"""

from __future__ import annotations

from typing import Dict, Optional


class ObjectMeta:
    """Name, labels and creation timestamp of an API object."""

    __slots__ = ("name", "labels", "creation_time", "resource_version")

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        creation_time: float = 0.0,
    ) -> None:
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.creation_time = creation_time
        #: Monotone per-kind write counter stamped by the API server on
        #: every create/modify; informers compare it against the store's
        #: head to detect missed watch events (client-go semantics).
        self.resource_version = 0

    def matches(self, selector: Dict[str, str]) -> bool:
        """True iff every key/value in ``selector`` is present in labels."""
        return all(self.labels.get(k) == v for k, v in selector.items())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ObjectMeta {self.name!r}>"


class KubeObject:
    """Base class for objects stored in the API server."""

    # The whole hierarchy is slotted: pods and nodes exist in the tens of
    # thousands in the large benchmark configurations.
    __slots__ = ("meta",)

    kind: str = "Object"

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        creation_time: float = 0.0,
    ) -> None:
        self.meta = ObjectMeta(name, labels, creation_time)

    @property
    def name(self) -> str:
        return self.meta.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.kind} {self.name!r}>"


class Service(KubeObject):
    """A stable network endpoint selecting pods by label.

    ``cluster_ip`` services expose the master to worker pods inside the
    cluster; ``load_balancer`` services expose it to Makeflow/HTA running
    outside (the paper's "dedicated services ... from outside and inside
    of the cluster").
    """

    __slots__ = ("selector", "service_type", "port")

    kind = "Service"

    def __init__(
        self,
        name: str,
        selector: Dict[str, str],
        *,
        service_type: str = "ClusterIP",
        port: int = 9123,
        labels: Optional[Dict[str, str]] = None,
        creation_time: float = 0.0,
    ) -> None:
        super().__init__(name, labels, creation_time)
        if service_type not in ("ClusterIP", "LoadBalancer", "NodePort"):
            raise ValueError(f"unknown service type {service_type!r}")
        self.selector = dict(selector)
        self.service_type = service_type
        self.port = port


class StatefulSet(KubeObject):
    """A set of pods with sticky identity and stable storage.

    The paper encapsulates the Work Queue master in a single-replica
    StatefulSet with a persistent volume so a restarted master keeps its
    identity and intermediate data. We track the template reference and
    replica count; the actual pod lifecycle is driven by the controller in
    :mod:`repro.cluster.cluster`.
    """

    __slots__ = ("replicas", "selector", "volume_gb", "template", "ready_replicas")

    kind = "StatefulSet"

    def __init__(
        self,
        name: str,
        *,
        replicas: int = 1,
        selector: Optional[Dict[str, str]] = None,
        volume_gb: float = 100.0,
        template: Optional[object] = None,  # PodSpec; untyped to avoid a cycle
        labels: Optional[Dict[str, str]] = None,
        creation_time: float = 0.0,
    ) -> None:
        super().__init__(name, labels, creation_time)
        if replicas < 0:
            raise ValueError("replicas must be non-negative")
        self.replicas = replicas
        self.selector = dict(selector or {})
        self.volume_gb = volume_gb
        self.template = template
        self.ready_replicas = 0
