"""The kube-scheduler's indexes, kept on the API server's write path.

Scanning every node for every pending pod makes a scheduling pass
O(pending x nodes). Two indexes make it O(binds + newly-pending pods +
signatures):

* :class:`FreeCapacityIndex` orders the nodes by ``(free().cores, name)``.
  The scheduler takes the first fitting node from the top (most free
  cores, ties to the larger name). A node whose free cores cannot hold
  the request is never looked at.
* :class:`PendingPodIndex` holds the pending, unbound pods in
  ``(creation_time, name)`` order, bucketed by placement signature, and
  tracks which of them still owe a ``FailedScheduling`` event.

:class:`~repro.cluster.api.KubeApiServer` updates both synchronously in
``create`` / ``mark_modified`` / ``delete`` — never from a watch, whose
delivery is deferred and is cut during outages and drop windows while
writes still commit. A node's key changes only when its ``requested()``
fold does, and :class:`~repro.cluster.node.Node` reports exactly those
events (bind, unbind, a bound pod turning terminal) to the index.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.cluster.pod import Pod, PodPhase, REASON_FAILED_SCHEDULING
from repro.cluster.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node
    from repro.cluster.objects import KubeObject

#: ``ResourceVector.fits_in``'s tolerance. The walks cut off with the same
#: float test fits_in applies to the cores axis, so the cutoff is exact.
FIT_EPSILON = 1e-9

Signature = Tuple[ResourceVector, Optional[Tuple[Tuple[str, str], ...]]]


def placement_signature(pod: Pod) -> Signature:
    """What the scheduler's node choice depends on: request and selector.

    Within a pass capacity only shrinks, so once one pod of a signature
    finds no seat, every later pod of the same signature fails too.
    """
    selector = pod.spec.node_selector
    return (
        pod.spec.request,
        tuple(sorted(selector.items())) if selector else None,
    )


def list_key(obj: "KubeObject") -> Tuple[float, str]:
    """The API server's list order; unique per stored object."""
    meta = obj.meta
    return (meta.creation_time, meta.name)


def unschedulable_recorded(pod: Pod) -> bool:
    """The pod's current unschedulable episode already has its event."""
    events = pod.events
    return bool(events) and events[-1].reason == REASON_FAILED_SCHEDULING


def _find(pods: List[Pod], pod: Pod) -> int:
    """Position of ``pod`` in a ``list_key``-sorted list, or -1."""
    i = bisect_left(pods, list_key(pod), key=list_key)
    return i if i < len(pods) and pods[i] is pod else -1


def _remove(pods: List[Pod], pod: Pod) -> None:
    i = _find(pods, pod)
    if i >= 0:
        del pods[i]


class FreeCapacityIndex:
    """Nodes sorted by ``(free().cores, name)``, with lazily refreshed keys.

    ``fits_in`` rejects a node when ``request.cores > avail + 1e-9``, where
    ``avail`` is allocatable minus requested; the key is
    ``max(avail, 0.0)``, never below ``avail``. So every node cut off by
    the same test on its key fails ``can_fit`` too. Readiness, cordons
    and deletion marks are not part of the key: ``can_fit`` re-checks
    them for each node a walk visits.
    """

    __slots__ = ("_keys", "_nodes", "_key_of", "_dirty")

    def __init__(self) -> None:
        self._keys: List[Tuple[float, str]] = []
        self._nodes: List["Node"] = []
        self._key_of: Dict["Node", Tuple[float, str]] = {}
        #: Nodes whose requested() fold changed since their key was taken.
        self._dirty: Dict["Node", None] = {}

    def add(self, node: "Node") -> None:
        node._capacity_index = self
        self._insert(node, (node.free().cores, node.name))

    def discard(self, node: "Node") -> None:
        node._capacity_index = None
        self._dirty.pop(node, None)
        key = self._key_of.pop(node, None)
        if key is not None:
            i = bisect_left(self._keys, key)
            del self._keys[i]
            del self._nodes[i]

    def mark_dirty(self, node: "Node") -> None:
        self._dirty[node] = None

    def _insert(self, node: "Node", key: Tuple[float, str]) -> None:
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._nodes.insert(i, node)
        self._key_of[node] = key

    def _refresh(self) -> None:
        for node in self._dirty:
            old = self._key_of[node]
            key = (node.free().cores, node.name)
            if key != old:
                i = bisect_left(self._keys, old)
                del self._keys[i]
                del self._nodes[i]
                self._insert(node, key)
        self._dirty.clear()

    def _first_seat(self, cores: float) -> int:
        """Position of the first node whose key passes the cores test."""
        return bisect_left(
            self._keys, True, key=lambda k: cores <= k[0] + FIT_EPSILON
        )

    def descending(self, cores: float) -> Iterator["Node"]:
        """Nodes that might seat ``cores``, most free cores first (ties
        broken by the larger name)."""
        self._refresh()
        nodes = self._nodes
        for i in range(len(nodes) - 1, self._first_seat(cores) - 1, -1):
            yield nodes[i]

    def entries(self) -> List[Tuple[Tuple[float, str], "Node"]]:
        """``(key, node)`` pairs in index order, keys refreshed."""
        self._refresh()
        return list(zip(self._keys, self._nodes))


class PodBucket:
    """The pending pods of one placement signature, in list order."""

    __slots__ = ("signature", "pods", "fresh")

    def __init__(self, signature: Signature) -> None:
        self.signature = signature
        self.pods: List[Pod] = []
        #: The subset whose unschedulable episode has no event yet.
        self.fresh: List[Pod] = []


class PendingPodIndex:
    """Pods with ``phase is PENDING and node is None``, in list order.

    Entries change only through :meth:`update` and :meth:`discard`, which
    the API server calls on every pod write. A pod changed without a
    write (a direct ``mark_scheduled``) leaves a stale entry behind; the
    scheduler re-checks each pod it takes and resyncs such entries, and
    :meth:`KubeApiServer.pending_pods` filters them out.
    """

    __slots__ = ("_order", "_bucket_of", "_buckets")

    def __init__(self) -> None:
        self._order: List[Pod] = []
        self._bucket_of: Dict[Pod, PodBucket] = {}
        #: Insertion-ordered; the pass merges bucket heads by list key, so
        #: the dict order never decides anything.
        self._buckets: Dict[Signature, PodBucket] = {}

    def __iter__(self) -> Iterator[Pod]:
        """Every indexed pod in list order (stale entries included)."""
        return iter(self._order)

    def buckets(self) -> List[PodBucket]:
        return list(self._buckets.values())

    def update(self, pod: Pod) -> None:
        """Re-file ``pod`` after a write: enter, leave or re-flag it."""
        if pod.phase is not PodPhase.PENDING or pod.node is not None:
            self.discard(pod)
            return
        bucket = self._bucket_of.get(pod)
        if bucket is None:
            signature = placement_signature(pod)
            bucket = self._buckets.get(signature)
            if bucket is None:
                bucket = self._buckets[signature] = PodBucket(signature)
            # Same-instant creations arrive in any name order (w-10 before
            # w-9), so insert by key rather than append.
            insort(self._order, pod, key=list_key)
            insort(bucket.pods, pod, key=list_key)
            self._bucket_of[pod] = bucket
        i = _find(bucket.fresh, pod)
        if unschedulable_recorded(pod):
            if i >= 0:
                del bucket.fresh[i]
        elif i < 0:
            insort(bucket.fresh, pod, key=list_key)

    def discard(self, pod: Pod) -> None:
        bucket = self._bucket_of.pop(pod, None)
        if bucket is None:
            return
        _remove(self._order, pod)
        _remove(bucket.pods, pod)
        _remove(bucket.fresh, pod)
        if not bucket.pods:
            del self._buckets[bucket.signature]
