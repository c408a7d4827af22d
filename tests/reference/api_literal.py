"""The API server's per-handler watch delivery, kept as a test oracle.

This is how :class:`repro.cluster.api.KubeApiServer` delivered watch
events before same-instant fan-outs: ``_notify`` merged the node-keyed
pod watchers into registration order with a sort on every bound-pod
write and made one ``call_soon`` per handler, and the replay in
``watch`` and ``watch_pods_on_node`` made one ``call_soon`` per object.
The four methods are kept verbatim on a subclass (they read the same
watcher lists as the fast server). A fifth, ``unwatch_pods_on_node``,
came after them: here it is the plain removal from the node's keyed
list, which leaves an emptied list in place. So a property test can drive both
servers, each on its own engine, through the same writes and watch
changes and demand the same handler trace and dropped-event counts.
Run it on :class:`tests.reference.engine_literal.Engine` for the
pre-fan-out engine as well.
"""

from __future__ import annotations

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType, WatchHandler
from repro.cluster.node import Node
from repro.cluster.objects import KubeObject
from repro.cluster.sched_index import list_key


class LiteralKubeApiServer(KubeApiServer):
    """:class:`KubeApiServer` with one engine event per watch delivery."""

    def watch(self, kind: str, handler: WatchHandler, *, replay_existing: bool = True) -> None:
        """Subscribe to changes of ``kind``.

        With ``replay_existing`` (informer semantics) the handler first
        receives ADDED for every object already in the store.
        """
        self._watchers[kind].append((next(self._watch_pos), handler))
        if replay_existing:
            for obj in self.list(kind):
                self.engine.call_soon(
                    handler,
                    WatchEvent(
                        WatchEventType.ADDED,
                        obj,
                        self.engine.now,
                        version=obj.meta.resource_version,
                    ),
                )

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
        if replay_existing:
            store = self._store("Pod")
            bound = sorted(
                (p for p in node.pods if store.get(p.name) is p),
                key=list_key,
            )
            for obj in bound:
                self.engine.call_soon(
                    handler,
                    WatchEvent(
                        WatchEventType.ADDED,
                        obj,
                        self.engine.now,
                        version=obj.meta.resource_version,
                    ),
                )

    def unwatch(self, kind: str, handler: WatchHandler) -> None:
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

    def unwatch_pods_on_node(self, node: Node, handler: WatchHandler) -> None:
        keyed = self._pod_node_watchers.get(node.name, [])
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
        event = WatchEvent(event_type, obj, self.engine.now, version=version)
        targets = self._watchers[obj.kind]
        if obj.kind == "Pod":
            node = obj.node  # type: ignore[attr-defined]
            keyed = (
                self._pod_node_watchers.get(node.name)
                if node is not None
                else None
            )
            if keyed:
                # Merge back into registration order so same-instant
                # handler execution order is identical to the unscoped-
                # watch behaviour.
                targets = sorted(
                    targets + keyed, key=lambda entry: entry[0]
                )
        for _, handler in list(targets):
            self.engine.call_soon(handler, event)
