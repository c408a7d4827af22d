"""A client-go-style shared informer: local cache + event handlers.

HTA's *Informer Cache* component "receives a notice when registered
objects are created, updated, or deleted" and uses it to track worker-pod
lifecycles. This class is the same abstraction: it subscribes to the API
server watch for one kind, maintains a read-only local cache, and fans
events out to registered add/update/delete handlers.

Like client-go, the informer survives broken watch streams. Every store
write advances a per-kind resourceVersion even when its notification is
lost (API outage, silent stream drop), so :meth:`Informer.staleness` —
the gap between the store's head version and the last version this cache
saw — measures exactly how far behind the cache is. A periodic (or
manual) :meth:`Informer.resync` relists the store, reconciles the cache
against it, and synthesizes the missed add/update/delete events for the
handlers, then fast-forwards the cache to the store's head. Consumers
must therefore tolerate at-least-once delivery (ours do: they key off
object identity and resourceVersions, not event counts).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType
from repro.cluster.objects import KubeObject
from repro.sim.engine import PeriodicTask
from repro.telemetry.events import Tracer

AddHandler = Callable[[KubeObject], None]
UpdateHandler = Callable[[KubeObject], None]
DeleteHandler = Callable[[KubeObject], None]


class Informer:
    """Watches one kind; caches objects; dispatches to handlers.

    Handlers registered after events have flowed still see a consistent
    picture via :meth:`items` (the cache), like a real informer's lister.

    ``resync_period_s`` arms a periodic relist-and-resync. It defaults
    off because a perpetual timer keeps the event queue non-empty, which
    breaks drivers that run the engine until it drains; fault-injecting
    runners opt in. Call :meth:`close` to unsubscribe (and stop the
    timer) when the informer's owner shuts down — experiments share one
    API server, and leaked handlers would see the next run's events.
    """

    def __init__(
        self,
        api: KubeApiServer,
        kind: str,
        *,
        resync_period_s: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.api = api
        self.kind = kind
        self.tracer = tracer if tracer is not None else api.tracer
        self.cache: Dict[str, KubeObject] = {}
        self._on_add: List[AddHandler] = []
        self._on_update: List[UpdateHandler] = []
        self._on_delete: List[DeleteHandler] = []
        self.events_seen = 0
        #: Events fabricated by resyncs to stand in for dropped ones.
        self.events_synthesized = 0
        self.resyncs = 0
        self.closed = False
        #: Head resourceVersion of the kind as of the last event or
        #: resync — "where our watch stream is". Starts at the store's
        #: current head: the initial replay_existing listing is a
        #: list-at-that-version.
        self.last_version = api.kind_version(kind)
        #: Last resourceVersion observed per object (detects missed
        #: MODIFIEDs during resync).
        self._seen_versions: Dict[str, int] = {}
        #: True once a delivered event's version skipped past
        #: ``last_version + 1`` — i.e. some notification between was lost
        #: even though a later one arrived. While False and
        #: ``last_version`` equals the store head, the cache provably saw
        #: every write, so :meth:`resync` can skip the O(store) relist.
        self._gap_seen = False
        self._resync_loop: Optional[PeriodicTask] = None
        api.watch(kind, self._handle, replay_existing=True)
        if resync_period_s is not None:
            self._resync_loop = PeriodicTask(api.engine, resync_period_s, self.resync)

    # ------------------------------------------------------------ handlers
    def on_add(self, fn: AddHandler) -> None:
        self._on_add.append(fn)

    def on_update(self, fn: UpdateHandler) -> None:
        self._on_update.append(fn)

    def on_delete(self, fn: DeleteHandler) -> None:
        self._on_delete.append(fn)

    # --------------------------------------------------------------- cache
    def items(self) -> List[KubeObject]:
        return sorted(self.cache.values(), key=lambda o: (o.meta.creation_time, o.name))

    def get(self, name: str) -> Optional[KubeObject]:
        return self.cache.get(name)

    def __len__(self) -> int:
        return len(self.cache)

    # ----------------------------------------------------------- freshness
    def staleness(self) -> int:
        """Store writes this cache has not seen (0 = fully caught up).

        Transiently nonzero in healthy operation too — notifications are
        asynchronous — so consumers should compare against a bound, not
        against zero.
        """
        return max(0, self.api.kind_version(self.kind) - self.last_version)

    def resync(self) -> int:
        """Relist the store and reconcile the cache against it,
        synthesizing the add/update/delete events that were missed.
        Returns the number of synthesized events. No-op while the API
        server is unavailable (a relist would fail too)."""
        if self.closed or not self.api.available:
            return 0
        target = self.api.kind_version(self.kind)
        if target == self.last_version and not self._gap_seen:
            # Every write up to the head was delivered in order: the
            # cache cannot differ from the store, so reconciling would
            # synthesize nothing. Keep the counters/trace identical to a
            # full pass that found nothing.
            self.resyncs += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "cluster", "informer.resync",
                    kind=self.kind, synthesized=0,
                )
            return 0
        store = {o.name: o for o in self.api.list(self.kind)}
        now = self.api.engine.now
        synthesized = 0
        for name, obj in store.items():
            if name not in self.cache:
                synthesized += 1
                self._apply(
                    WatchEvent(
                        WatchEventType.ADDED, obj, now,
                        version=obj.meta.resource_version,
                    )
                )
            elif obj.meta.resource_version > self._seen_versions.get(name, 0):
                synthesized += 1
                self._apply(
                    WatchEvent(
                        WatchEventType.MODIFIED, obj, now,
                        version=obj.meta.resource_version,
                    )
                )
        for name in [n for n in self.cache if n not in store]:
            synthesized += 1
            self._apply(
                WatchEvent(WatchEventType.DELETED, self.cache[name], now, version=target)
            )
        self.last_version = max(self.last_version, target)
        # Reconciled against the store head: any previously-detected gap
        # is healed (the _apply calls above may have re-tripped the flag
        # with their jumping versions — that jump is the resync itself).
        self._gap_seen = False
        self.resyncs += 1
        self.events_synthesized += synthesized
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster", "informer.resync",
                kind=self.kind, synthesized=synthesized,
            )
        return synthesized

    def close(self) -> None:
        """Unsubscribe from the API server and stop the resync timer.
        Idempotent; a closed informer ignores late in-flight events."""
        if self.closed:
            return
        self.closed = True
        self.api.unwatch(self.kind, self._handle)
        if self._resync_loop is not None:
            self._resync_loop.stop()
            self._resync_loop = None

    def __enter__(self) -> "Informer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ internal
    def _handle(self, event: WatchEvent) -> None:
        if self.closed:
            return
        self.events_seen += 1
        self._apply(event)

    def _apply(self, event: WatchEvent) -> None:
        obj = event.obj
        version = event.version or obj.meta.resource_version
        if version > self.last_version + 1:
            # A notification between last_version and this one was lost
            # (store writes bump the version by exactly one).
            self._gap_seen = True
        self.last_version = max(self.last_version, version)
        if event.type is WatchEventType.ADDED:
            self.cache[obj.name] = obj
            self._seen_versions[obj.name] = max(
                self._seen_versions.get(obj.name, 0), version
            )
            for fn in list(self._on_add):
                fn(obj)
        elif event.type is WatchEventType.MODIFIED:
            self.cache[obj.name] = obj
            self._seen_versions[obj.name] = max(
                self._seen_versions.get(obj.name, 0), version
            )
            for fn in list(self._on_update):
                fn(obj)
        elif event.type is WatchEventType.DELETED:
            self.cache.pop(obj.name, None)
            self._seen_versions.pop(obj.name, None)
            for fn in list(self._on_delete):
                fn(obj)
