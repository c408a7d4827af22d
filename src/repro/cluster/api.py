"""The API server: typed object stores plus watch streams.

Control loops in this package (scheduler, cloud controller, HPA) and in
:mod:`repro.hta` never hold references to each other; they interact the
Kubernetes way — by reading and writing objects through the API server and
subscribing to watch events. This keeps each loop independently testable
and mirrors the real system's architecture (HTA's informer cache is a
client of exactly this watch interface).
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, insort
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Type

from repro.cluster.node import Node
from repro.cluster.objects import KubeObject, Service, StatefulSet
from repro.cluster.pod import Pod, PodPhase, REASON_KILLED
from repro.cluster.sched_index import FreeCapacityIndex, PendingPodIndex, list_key
from repro.sim.engine import Engine
from repro.telemetry.events import NULL_TRACER, Tracer
from repro.telemetry.metrics import MetricsRegistry


class WatchEventType(enum.Enum):
    ADDED = "ADDED"
    MODIFIED = "MODIFIED"
    DELETED = "DELETED"


class WatchEvent(NamedTuple):
    """A change notification delivered to watchers of a kind."""

    type: WatchEventType
    obj: KubeObject
    time: float
    #: The kind's resourceVersion this event advances the watcher to.
    version: int = 0


WatchHandler = Callable[[WatchEvent], None]

#: A label selector in canonical (sorted items) form.
Selector = Tuple[Tuple[str, str], ...]


class ConflictError(RuntimeError):
    """Create of an object whose name already exists."""


class NotFoundError(KeyError):
    """Get/delete of an object that does not exist."""


class NodeCounts:
    """Stored nodes tallied by the flags the accounting reads.

    ``ready`` and ``ready_spot`` count nodes that are ready and not
    flagged deleted (all of them, and the preemptible ones);
    ``ondemand`` and ``spot`` count nodes not flagged deleted, per pool.
    The API server adds a node on ``create`` and discards it on
    ``delete``, and a stored node re-tallies itself whenever its
    ``ready`` or ``deleted`` flag flips — so a node flagged deleted but
    not yet removed from the store (a chaos kill, a reclaim, a removal
    in progress) already counts as gone, exactly as a filter over
    ``nodes()`` would see it. ``preemptible`` is fixed when a node is
    built. Writes commit during outages and watch-drop windows, so the
    counts never depend on watch delivery.
    """

    __slots__ = ("ready", "ready_spot", "ondemand", "spot")

    def __init__(self) -> None:
        self.ready = 0
        self.ready_spot = 0
        self.ondemand = 0
        self.spot = 0

    def add(self, node: Node) -> None:
        node._counts = self
        self.tally(node, 1)

    def discard(self, node: Node) -> None:
        node._counts = None
        self.tally(node, -1)

    def tally(self, node: Node, delta: int) -> None:
        """Add ``node``'s contribution, scaled by ``delta`` (+1 / -1)."""
        if node._deleted:
            return
        if node.preemptible:
            self.spot += delta
            if node._ready:
                self.ready += delta
                self.ready_spot += delta
        else:
            self.ondemand += delta
            if node._ready:
                self.ready += delta


class ChangeFeed:
    """Stored objects of one kind changed since each subscriber last took
    its changes.

    The API server attaches an object on ``create`` and detaches it on
    ``delete`` (both note it); while attached the object notes itself
    when something a subscriber reads changes. For nodes (the cloud
    controller's scale-down pass) that is a ``ready``, ``deleted`` or
    ``unschedulable`` flip, a dropped ``requested()`` fold (bind, unbind,
    a bound pod turning terminal) and ``mark_modified``. For pods (the
    metrics server's scrape) it is a phase change, a deletion request
    and a change of the CPU reading (see :meth:`Pod.usage_changed`).
    Like the node tally it is fed on the write path, so outages and
    watch-drop windows lose nothing. A subscriber holds an
    insertion-ordered set of objects and empties it when it has looked
    at them.

    ``version`` counts the notes. It moves on in-place changes that no
    write announces, so a reader that memoizes on the kind's
    resourceVersion also compares it (see
    :meth:`KubeApiServer.state_version`).
    """

    __slots__ = ("_subscribers", "version")

    def __init__(self) -> None:
        self._subscribers: List[Dict[KubeObject, None]] = []
        self.version = 0

    def subscribe(self) -> Dict[KubeObject, None]:
        changed: Dict[KubeObject, None] = {}
        self._subscribers.append(changed)
        return changed

    def unsubscribe(self, changed: Dict[KubeObject, None]) -> None:
        self._subscribers = [c for c in self._subscribers if c is not changed]

    def attach(self, obj: KubeObject) -> None:
        obj._feed = self  # type: ignore[attr-defined]
        self.note(obj)

    def detach(self, obj: KubeObject) -> None:
        self.note(obj)
        obj._feed = None  # type: ignore[attr-defined]

    def note(self, obj: KubeObject) -> None:
        self.version += 1
        for changed in self._subscribers:
            changed[obj] = None


class KubeApiServer:
    """Stores objects by kind and name; fans out watch events.

    Watch delivery is *asynchronous* (one same-instant fan-out per write,
    :meth:`Engine.call_soon_each`), like real watch streams: a handler
    that mutates objects cannot re-enter another handler
    mid-notification, which keeps control-loop interleavings
    well-defined.
    """

    KINDS: Dict[str, Type[KubeObject]] = {
        "Pod": Pod,
        "Node": Node,
        "Service": Service,
        "StatefulSet": StatefulSet,
    }

    def __init__(
        self,
        engine: Engine,
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Registry home for the server's fault counters; a private one
        #: is created when no shared registry is supplied so the
        #: attribute API below works unconditionally.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_dropped = self.metrics.counter(
            "api_dropped_watch_events_total",
            "watch events lost to outages or injected stream drops",
        )
        self._c_outages = self.metrics.counter(
            "api_outages_total", "injected API-server outage windows"
        )
        self._stores: Dict[str, Dict[str, KubeObject]] = {k: {} for k in self.KINDS}
        # Memoized unfiltered list() result per kind. The sort key
        # (creation_time, name) is immutable per object and unique per
        # stored one, so create/delete keep the snapshot sorted with one
        # bisect each instead of dropping it.
        self._sorted_cache: Dict[str, List[KubeObject]] = {}
        # Memoized list(kind, selector) results per kind, keyed by the
        # selector's sorted items. Labels are set before create and never
        # change, so create/delete keep each snapshot exact the same way.
        self._selector_cache: Dict[str, Dict[Selector, List[KubeObject]]] = {
            k: {} for k in self.KINDS
        }
        # Beside each Pod selector snapshot, the pods that were PENDING at
        # their last write, in list order. A pod enters on create and
        # leaves on a non-PENDING write or its delete; the phase never
        # returns to PENDING, and reads re-check it, so a pod changed
        # without a write is filtered out until its next write.
        self._pending_views: Dict[Selector, List[Pod]] = {}
        #: The kube-scheduler's indexes (see :mod:`repro.cluster.sched_index`),
        #: updated here on every write — during outages and watch-drop
        #: windows too, because writes still commit then.
        self.pending_index = PendingPodIndex()
        self.capacity_index = FreeCapacityIndex()
        #: Node counts for the accounting gauges and the cloud controller,
        #: kept on the same write path (see :class:`NodeCounts`).
        self.node_counts = NodeCounts()
        #: Changed nodes for the cloud controller's scale-down pass.
        self.node_feed = ChangeFeed()
        #: Changed pods for the metrics server's scrape.
        self.pod_feed = ChangeFeed()
        # Watchers are stored as (position, handler) so deliveries can be
        # merged with the node-keyed pod watchers below in exact
        # registration order (same-instant handler execution order is
        # part of determinism).
        self._watchers: Dict[str, List[Tuple[int, WatchHandler]]] = {
            k: [] for k in self.KINDS
        }
        self._watch_pos = itertools.count()
        #: Node-scoped pod watchers (the kubelets): a pod event is
        #: delivered only to the watcher keyed by the pod's bound node,
        #: instead of fanning out one engine event per kubelet per pod —
        #: the O(pods x nodes) churn that dominated large-fleet runs.
        self._pod_node_watchers: Dict[str, List[Tuple[int, WatchHandler]]] = {}
        self._n_keyed_pod_watchers = 0
        # Delivery order, cached: the handlers of each kind, and of a pod
        # bound to each node (the kind's merged with the node's keyed
        # ones), in registration order. watch, unwatch and
        # watch_pods_on_node drop what they change.
        self._kind_handlers: Dict[str, Tuple[WatchHandler, ...]] = {}
        self._node_handlers: Dict[str, Tuple[WatchHandler, ...]] = {}
        self.writes = 0  # diagnostic: API write volume
        #: Per-kind resourceVersion head, bumped on every notification.
        self._versions: Dict[str, int] = {k: 0 for k in self.KINDS}
        #: False during an injected API-server outage: the notification
        #: plane is cut (watch events are lost) while writes from
        #: co-located controllers still commit to the store — so when
        #: service returns, caches are *behind* the store and must
        #: relist. Defensive clients also check this flag before calls.
        self.available = True
        #: Kinds whose watch streams are currently silently broken.
        self._drop_kinds: Set[str] = set()

    # Fault counters live in the metrics registry; these properties keep
    # the historical attribute API (``api.dropped_events``) intact.
    @property
    def api_outages(self) -> int:
        return int(self._c_outages.total)

    @property
    def dropped_events(self) -> int:
        return int(self._c_dropped.total)

    # ---------------------------------------------------------------- CRUD
    def _store(self, kind: str) -> Dict[str, KubeObject]:
        try:
            return self._stores[kind]
        except KeyError:
            raise KeyError(f"unknown kind {kind!r}; known: {sorted(self._stores)}") from None

    def create(self, obj: KubeObject) -> KubeObject:
        store = self._store(obj.kind)
        if obj.name in store:
            raise ConflictError(f"{obj.kind} {obj.name!r} already exists")
        obj.meta.creation_time = self.engine.now
        store[obj.name] = obj
        cached = self._sorted_cache.get(obj.kind)
        if cached is not None:
            insort(cached, obj, key=list_key)
        matches = obj.meta.matches
        for selector, selected in self._selector_cache[obj.kind].items():
            if matches(dict(selector)):
                insort(selected, obj, key=list_key)
                view = self._pending_views.get(selector)
                if (
                    view is not None
                    and isinstance(obj, Pod)
                    and obj.phase is PodPhase.PENDING
                ):
                    insort(view, obj, key=list_key)
        if isinstance(obj, Pod):
            self.pending_index.update(obj)
            self.pod_feed.attach(obj)
        elif isinstance(obj, Node):
            self.capacity_index.add(obj)
            self.node_counts.add(obj)
            self.node_feed.attach(obj)
        self.writes += 1
        self._notify(WatchEventType.ADDED, obj)
        return obj

    def get(self, kind: str, name: str) -> KubeObject:
        store = self._store(kind)
        try:
            return store[name]
        except KeyError:
            raise NotFoundError(f"{kind} {name!r} not found") from None

    def try_get(self, kind: str, name: str) -> Optional[KubeObject]:
        return self._store(kind).get(name)

    def list(self, kind: str, selector: Optional[Dict[str, str]] = None) -> List[KubeObject]:
        """Objects of ``kind`` in ``(creation_time, name)`` order; a fresh
        list the caller may filter or mutate."""
        if selector:
            return list(self._selected(kind, selector))
        return list(self._sorted(kind))

    def _sorted(self, kind: str) -> List[KubeObject]:
        cached = self._sorted_cache.get(kind)
        if cached is None:
            cached = sorted(self._store(kind).values(), key=list_key)
            self._sorted_cache[kind] = cached
        return cached

    def _selected(self, kind: str, selector: Dict[str, str]) -> List[KubeObject]:
        snapshots = self._selector_cache[kind]
        key = tuple(sorted(selector.items()))
        selected = snapshots.get(key)
        if selected is None:
            # The key is unique per stored object, so filtering the
            # sorted snapshot gives the order a sort of the matches
            # would.
            selected = [o for o in self._sorted(kind) if o.meta.matches(selector)]
            snapshots[key] = selected
        return selected

    def stored(self, kind: str) -> Iterable[KubeObject]:
        """The stored objects of ``kind`` in no particular order: a live
        view, not a copy, so the caller must not write while iterating."""
        return self._store(kind).values()

    def list_pending(self, selector: Dict[str, str]) -> List[Pod]:
        """``[p for p in pods(selector) if p.phase is PENDING]``, served
        from the selector's pending view instead of its whole snapshot."""
        key = tuple(sorted(selector.items()))
        view = self._pending_views.get(key)
        if view is None:
            view = [
                p
                for p in self._selected("Pod", selector)
                if p.phase is PodPhase.PENDING  # type: ignore[attr-defined]
            ]
            self._pending_views[key] = view
        return [p for p in view if p.phase is PodPhase.PENDING]

    def pending_views(self) -> List[Dict[str, str]]:
        """The selectors whose ``list_pending`` view is kept."""
        return [dict(key) for key in self._pending_views]

    def _drop_pending(self, pod: Pod) -> None:
        key = list_key(pod)
        for view in self._pending_views.values():
            i = bisect_left(view, key, key=list_key)
            if i < len(view) and view[i] is pod:
                del view[i]

    def selectors(self, kind: str) -> List[Dict[str, str]]:
        """The selectors whose ``list(kind, selector)`` snapshot is kept."""
        return [dict(key) for key in self._selector_cache[kind]]

    def mark_modified(self, obj: KubeObject) -> None:
        """Record an in-place status update and notify watchers.

        Objects are mutated directly (pods change phase, nodes turn ready);
        callers announce the change here, mirroring a status PATCH.
        """
        store = self._store(obj.kind)
        if store.get(obj.name) is not obj:
            return  # already deleted; late status updates are dropped
        if isinstance(obj, Pod):
            self.pending_index.update(obj)
            if obj.phase is not PodPhase.PENDING:
                self._drop_pending(obj)
        elif isinstance(obj, Node):
            self.node_feed.note(obj)
        self.writes += 1
        self._notify(WatchEventType.MODIFIED, obj)

    def delete(self, kind: str, name: str) -> KubeObject:
        store = self._store(kind)
        try:
            obj = store.pop(name)
        except KeyError:
            raise NotFoundError(f"{kind} {name!r} not found") from None
        key = list_key(obj)
        cached = self._sorted_cache.get(kind)
        if cached is not None:
            del cached[bisect_left(cached, key, key=list_key)]
        for selected in self._selector_cache[kind].values():
            i = bisect_left(selected, key, key=list_key)
            if i < len(selected) and selected[i] is obj:
                del selected[i]
        self.writes += 1
        if isinstance(obj, Pod):
            self.pending_index.discard(obj)
            self._drop_pending(obj)
            self._teardown_pod(obj)
            self.pod_feed.detach(obj)
        elif isinstance(obj, Node):
            self.capacity_index.discard(obj)
            self.node_counts.discard(obj)
            self.node_feed.detach(obj)
        self._notify(WatchEventType.DELETED, obj)
        return obj

    def try_delete(self, kind: str, name: str) -> Optional[KubeObject]:
        try:
            return self.delete(kind, name)
        except NotFoundError:
            return None

    def _teardown_pod(self, pod: Pod) -> None:
        """Deleting a pod kills its container (the disruptive path the
        paper's pod-per-worker design avoids for scale-down)."""
        pod.deletion_requested = True
        if pod.phase is PodPhase.RUNNING:
            pod.add_event(self.engine.now, REASON_KILLED, "pod deleted")
            if pod.on_stop is not None:
                pod.on_stop(pod)
            pod.mark_finished(self.engine.now, succeeded=False)
        elif not pod.phase.terminal:
            pod.mark_finished(self.engine.now, succeeded=False)
        if pod.node is not None:
            pod.node.unbind(pod)

    # ------------------------------------------------------- fault windows
    def begin_outage(self) -> None:
        """API server down: watch notifications are lost until
        :meth:`end_outage` (resourceVersions still advance — that gap is
        exactly what informers detect as staleness)."""
        if not self.available:
            return
        self.available = False
        self._c_outages.inc()
        self.tracer.emit("cluster", "api.outage.begin", "fault")

    def end_outage(self) -> None:
        if not self.available:
            self.tracer.emit("cluster", "api.outage.end", "fault")
        self.available = True

    def begin_watch_drop(self, kind: str) -> None:
        """Silently break ``kind``'s watch streams: events are dropped
        without any error, the failure mode client-go's relist-and-resync
        exists for."""
        if kind not in self._drop_kinds:
            self.tracer.emit("cluster", "api.watch_drop.begin", "fault", kind=kind)
        self._drop_kinds.add(kind)

    def end_watch_drop(self, kind: Optional[str] = None) -> None:
        ended = list(self._drop_kinds) if kind is None else (
            [kind] if kind in self._drop_kinds else []
        )
        for k in ended:
            self.tracer.emit("cluster", "api.watch_drop.end", "fault", kind=k)
        if kind is None:
            self._drop_kinds.clear()
        else:
            self._drop_kinds.discard(kind)

    def kind_version(self, kind: str) -> int:
        """Current resourceVersion head for ``kind``."""
        try:
            return self._versions[kind]
        except KeyError:
            raise KeyError(f"unknown kind {kind!r}; known: {sorted(self._versions)}") from None

    def state_version(self) -> Tuple[int, int, int, int]:
        """Where every pod and node stands: the two kinds'
        resourceVersions, which every write advances, and their change
        feeds' versions, which also advance on in-place changes no write
        announces (a phase, a deletion request, readiness, a cordon, a
        node's requested fold). A control loop whose last pass over pods
        and nodes changed nothing can skip the next while it is equal."""
        versions = self._versions
        return (
            versions["Pod"], versions["Node"],
            self.pod_feed.version, self.node_feed.version,
        )

    def watcher_count(self, kind: str) -> int:
        """Registered watch handlers for ``kind`` (leak regression hook)."""
        n = len(self._watchers[kind])
        if kind == "Pod":
            n += self._n_keyed_pod_watchers
        return n

    # --------------------------------------------------------------- watch
    def watch(self, kind: str, handler: WatchHandler, *, replay_existing: bool = True) -> None:
        """Subscribe to changes of ``kind``.

        With ``replay_existing`` (informer semantics) the handler first
        receives ADDED for every object already in the store.
        """
        self._watchers[kind].append((next(self._watch_pos), handler))
        self._forget_handlers(kind)
        if replay_existing:
            self._replay(handler, self.list(kind))

    def watch_pods_on_node(
        self, node: Node, handler: WatchHandler, *, replay_existing: bool = True
    ) -> None:
        """Subscribe to pod events scoped to ``node`` (kubelet semantics:
        a fieldSelector on ``spec.nodeName``).

        Delivery (including ordering relative to unscoped pod watchers)
        matches what an unscoped watch whose handler ignored other nodes'
        pods would observe — the API server just skips scheduling the
        no-op deliveries. Replay covers pods currently bound to the node.
        """
        self._pod_node_watchers.setdefault(node.name, []).append(
            (next(self._watch_pos), handler)
        )
        self._n_keyed_pod_watchers += 1
        self._node_handlers.pop(node.name, None)
        if replay_existing:
            store = self._store("Pod")
            bound = sorted(
                (p for p in node.pods if store.get(p.name) is p),
                key=list_key,
            )
            self._replay(handler, bound)

    def _replay(self, handler: WatchHandler, objs: Iterable[KubeObject]) -> None:
        """Deliver ADDED for each of ``objs`` to ``handler``, in order."""
        added, now = WatchEventType.ADDED, self.engine.now
        self.engine.call_soon_each(
            (handler, (WatchEvent(added, obj, now, obj.meta.resource_version),))
            for obj in objs
        )

    def unwatch_pods_on_node(self, node: Node, handler: WatchHandler) -> None:
        """Drop a :meth:`watch_pods_on_node` subscription. Reads only
        ``node``'s keyed list (one kubelet's), and drops the list once
        empty, so the keyed lists track the nodes still watched."""
        keyed = self._pod_node_watchers.get(node.name)
        if keyed is None:
            return
        for i, (_, h) in enumerate(keyed):
            if h == handler:
                del keyed[i]
                self._n_keyed_pod_watchers -= 1
                if not keyed:
                    del self._pod_node_watchers[node.name]
                self._node_handlers.pop(node.name, None)
                return

    def unwatch(self, kind: str, handler: WatchHandler) -> None:
        self._forget_handlers(kind)
        entries = self._watchers[kind]
        for i, (_, h) in enumerate(entries):
            if h == handler:
                del entries[i]
                return
        if kind == "Pod":
            for keyed in self._pod_node_watchers.values():
                for i, (_, h) in enumerate(keyed):
                    if h == handler:
                        del keyed[i]
                        self._n_keyed_pod_watchers -= 1
                        return

    def _notify(self, event_type: WatchEventType, obj: KubeObject) -> None:
        version = self._versions[obj.kind] + 1
        self._versions[obj.kind] = version
        if event_type is not WatchEventType.DELETED:
            obj.meta.resource_version = version
        if not self.available or obj.kind in self._drop_kinds:
            # The notification plane is down (outage) or this kind's
            # streams are broken (drop window): the write happened, the
            # version advanced, but nobody hears about it.
            self._c_dropped.inc(self.watcher_count(obj.kind), kind=obj.kind)
            return
        handlers = self._handlers(obj)
        if handlers:
            event = WatchEvent(event_type, obj, self.engine.now, version)
            self.engine.call_soon_each(zip(handlers, itertools.repeat((event,))))

    def _handlers(self, obj: KubeObject) -> Tuple[WatchHandler, ...]:
        """Who hears about a write to ``obj``, in registration order: the
        kind's watchers, merged for a bound pod with the node-keyed
        watchers of its node (so same-instant handler order matches an
        unscoped watch whose handler ignored other nodes' pods)."""
        kind = obj.kind
        node = obj.node if kind == "Pod" else None  # type: ignore[attr-defined]
        if node is None:
            handlers = self._kind_handlers.get(kind)
            if handlers is None:
                handlers = tuple(h for _, h in self._watchers[kind])
                self._kind_handlers[kind] = handlers
            return handlers
        handlers = self._node_handlers.get(node.name)
        if handlers is None:
            entries = self._watchers[kind] + self._pod_node_watchers.get(node.name, [])
            entries.sort(key=lambda entry: entry[0])
            handlers = tuple(h for _, h in entries)
            self._node_handlers[node.name] = handlers
        return handlers

    def _forget_handlers(self, kind: str) -> None:
        """Drop the cached delivery order a change to ``kind``'s watchers
        (node-keyed pod watchers included) invalidates."""
        self._kind_handlers.pop(kind, None)
        if kind == "Pod":
            self._node_handlers.clear()

    # ------------------------------------------------------------- helpers
    # A kind's store only ever holds objects of that kind's class, so
    # these return list()'s fresh copy as is.
    def pods(self, selector: Optional[Dict[str, str]] = None) -> List[Pod]:
        return self.list("Pod", selector)  # type: ignore[return-value]

    def nodes(self) -> List[Node]:
        return self.list("Node")  # type: ignore[return-value]

    def ready_nodes(self) -> List[Node]:
        return [n for n in self.nodes() if n.ready and not n.deleted]

    def pending_pods(self) -> List[Pod]:
        """Pending, unbound pods in list order, served from the index."""
        return [
            p
            for p in self.pending_index
            if p.phase is PodPhase.PENDING and p.node is None
        ]
