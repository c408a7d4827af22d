"""Cloud controller manager / cluster autoscaler.

The paper relies on GKE's node autoscaling: "changing the number of
worker-pods could result in pending pods with no available node or idle
nodes that are underutilized, and the cloud controller manager will
add/remove nodes accordingly". This loop:

* **scale-up** — each scan, first-fit-decreasing packs the resource
  requests of unschedulable pending pods into hypothetical new nodes and
  reserves that many machines (minus reservations already in flight).
  Reservation latency is drawn per machine from a normal distribution
  calibrated to the fig-6 measurement (GKE: mean 157.4 s total including
  image pull; see :class:`CloudControllerConfig`);
* **scale-down** — a node continuously idle for ``idle_timeout`` seconds
  is cordoned and removed, never below ``min_nodes`` (the paper keeps 3
  nodes so the cluster survives master upgrades).

Both passes run every scan, so both touch only what changed: scale-up
returns before listing pending pods when no pool has room, and packs
only the nodes that could seat the smallest request; scale-down reads
the API server's node change feed instead of every node. While nothing
either pass reads has changed (a fleet waiting minutes for its machines),
a scan costs O(1): both remember the API server's
:meth:`~repro.cluster.api.KubeApiServer.state_version` of their last
pending-pod scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from repro.cluster.api import KubeApiServer
from repro.cluster.node import MachineType, N1_STANDARD_4, Node, PREEMPTIBLE_LABEL
from repro.cluster.pod import Pod
from repro.cluster.resources import FIT_EPSILON, ResourceVector, first_fit_decreasing
from repro.cluster.sched_index import list_key
from repro.sim.engine import Engine, PeriodicTask
from repro.sim.rng import RngRegistry
from repro.telemetry.events import NULL_TRACER, Tracer


@dataclass(frozen=True, slots=True)
class PreemptiblePoolConfig:
    """A spot/preemptible node pool alongside the on-demand pool.

    Modeled on GCE preemptible VMs: the provider may reclaim a node at
    any time, delivering a preemption notice and killing the machine
    ``grace_period_s`` later (GCE gives 30 s). Spot capacity is also not
    guaranteed — a reservation can be rejected outright with probability
    ``stockout_prob`` (the pool is "out of stock" for that scan; the
    still-pending pods trigger another attempt on a later scan).
    """

    #: Shape of spot machines; ``None`` reuses the on-demand machine type.
    machine_type: Optional[MachineType] = None
    max_nodes: int = 10
    #: Notice-to-kill window. Pods still on the node when it expires die.
    grace_period_s: float = 30.0
    #: Mean gap between background reclamations (exponential inter-arrival
    #: times from the ``cloud.preempt`` stream); ``None`` disables the
    #: background process — chaos waves can still preempt on demand.
    reclaim_interval_s: Optional[float] = None
    reclaim_start_after_s: float = 0.0
    #: Probability a spot reservation fails for lack of capacity.
    stockout_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {self.max_nodes}")
        if self.grace_period_s < 0:
            raise ValueError(f"grace_period_s must be >= 0, got {self.grace_period_s}")
        if not 0.0 <= self.stockout_prob <= 1.0:
            raise ValueError(
                f"stockout_prob must be in [0,1], got {self.stockout_prob}"
            )
        if self.reclaim_interval_s is not None and self.reclaim_interval_s <= 0:
            raise ValueError("reclaim_interval_s must be positive when set")


@dataclass(frozen=True, slots=True)
class CloudControllerConfig:
    """Tunables for the node autoscaler.

    ``reservation_mean_s``/``reservation_std_s`` model VM reservation +
    boot + kubelet registration. The *total* pod-observed initialization
    latency additionally includes the image pull; with the default
    registry (500 MB image @ 100 MB/s + 2 s overhead ≈ 7 s) and the 1 s
    container start, reservation ≈ 149 s reproduces fig 6's 157.4 s mean.
    """

    machine_type: MachineType = N1_STANDARD_4
    min_nodes: int = 3
    max_nodes: int = 20
    scan_period_s: float = 10.0
    reservation_mean_s: float = 149.0
    reservation_std_s: float = 4.0
    idle_timeout_s: float = 600.0
    # Floor for the reservation draw; clouds never deliver instantly.
    reservation_floor_s: float = 30.0
    # Cap on machine reservations in flight at once. Cloud managers
    # "process reservation requests in batches" (§IV-B); a finite cap
    # serializes provisioning into batches the way the paper's fig-2 GKE
    # traces show. None = unlimited (provision everything immediately).
    max_concurrent_reservations: int | None = None
    # Probability a reserved machine fails to boot (the VM never joins
    # the cluster; the reservation is simply lost). ChaosInjector can
    # also raise/lower this at runtime for bounded fault windows.
    boot_failure_prob: float = 0.0
    # Optional spot pool. ``min_nodes``/``max_nodes`` above bound only the
    # on-demand pool; the spot pool has its own cap and no minimum.
    preemptible: Optional[PreemptiblePoolConfig] = None

    def __post_init__(self) -> None:
        if self.min_nodes < 0 or self.max_nodes < self.min_nodes:
            raise ValueError(
                f"invalid node bounds min={self.min_nodes} max={self.max_nodes}"
            )
        if self.scan_period_s <= 0:
            raise ValueError("scan_period_s must be positive")
        if not 0.0 <= self.boot_failure_prob <= 1.0:
            raise ValueError(
                f"boot_failure_prob must be in [0,1], got {self.boot_failure_prob}"
            )


class CloudController:
    """Provision/reclaim nodes in response to cluster state."""

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        rng: RngRegistry,
        config: CloudControllerConfig = CloudControllerConfig(),
        *,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.api = api
        self.rng = rng
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._node_seq = 0
        self._spot_seq = 0
        self._inflight = 0  # on-demand reservations not yet registered
        self._inflight_spot = 0
        #: When each idle node was first seen idle. Entries are only ever
        #: added stamped with the current time, so the dict is time-ordered.
        self._idle_since: Dict[str, float] = {}
        #: Nodes changed since the last scale-down pass.
        self._changed = api.node_feed.subscribe()
        #: The next scale-down pass looks at every stored node: at the
        #: first sync, and after the pending-pod guard cleared the timers.
        self._rescan = True
        self.nodes_provisioned = 0
        self.nodes_removed = 0
        #: Mutable copy of the configured rate so fault injection can
        #: open/close bounded boot-failure windows mid-run.
        self.boot_failure_prob = config.boot_failure_prob
        self.boot_failures = 0
        #: Spot-pool fault accounting.
        self.preemptions = 0
        self.spot_stockouts = 0
        #: The state version and reservations in flight that the last
        #: scale-up pass left behind (unless it drew a stockout). A pass
        #: reads nothing else, so at an equal key it would reserve nothing.
        self._quiet_scale_up: Optional[tuple] = None
        #: ``(state version, result)`` of the scale-down guard's last scan.
        self._guard: tuple = (None, False)
        #: Pending-pod scans answered from the two memos above.
        self.scans_skipped = 0
        self._loop = PeriodicTask(engine, config.scan_period_s, self.sync, start_after=0.0)
        self._reclaim_loop: Optional[PeriodicTask] = None
        spot = config.preemptible
        if spot is not None and spot.reclaim_interval_s is not None:
            self._reclaim_loop = PeriodicTask(
                engine,
                spot.reclaim_interval_s,
                self._reclaim_tick,
                start_after=spot.reclaim_start_after_s,
                use_return_delay=True,
            )
        # Bootstrap the minimum node pool instantly: the paper's clusters
        # start with their base nodes already running.
        for _ in range(config.min_nodes):
            self._register_node()

    def stop(self) -> None:
        self._loop.stop()
        self.api.node_feed.unsubscribe(self._changed)
        if self._reclaim_loop is not None:
            self._reclaim_loop.stop()

    # ----------------------------------------------------------- accounting
    # Served from the API server's write-path tally (O(1)): a landing
    # burst checks the on-demand count once per node.
    def node_count(self) -> int:
        counts = self.api.node_counts
        return counts.ondemand + counts.spot

    def ondemand_node_count(self) -> int:
        return self.api.node_counts.ondemand

    def spot_node_count(self) -> int:
        return self.api.node_counts.spot

    def target_count(self) -> int:
        """Current on-demand nodes plus reservations in flight."""
        return self.ondemand_node_count() + self._inflight

    def spot_target_count(self) -> int:
        return self.spot_node_count() + self._inflight_spot

    @property
    def spot_machine_type(self) -> MachineType:
        spot = self.config.preemptible
        if spot is None:
            raise RuntimeError("no preemptible pool configured")
        return spot.machine_type or self.config.machine_type

    # ----------------------------------------------------------------- sync
    def sync(self) -> None:
        self._heal_min_pool()
        self._scale_up()
        self._scale_down()

    def _heal_min_pool(self) -> None:
        """Replace crashed nodes so the pool never sits below min_nodes
        (a managed node pool repairs itself the same way)."""
        deficit = self.config.min_nodes - self.target_count()
        for _ in range(max(0, deficit)):
            self._reserve_node()

    # ------------------------------------------------------------- scale-up
    @staticmethod
    def _wants_spot(pod: Pod) -> bool:
        return pod.spec.node_selector.get(PREEMPTIBLE_LABEL) == "true"

    def _scale_up(self) -> None:
        # Every input changes only through the key: the pending pods and
        # their flags, the nodes' free capacity, readiness, cordons and
        # deletions, the node tallies behind _room, and the reservations
        # in flight.
        key = (self.api.state_version(), self._inflight, self._inflight_spot)
        if key == self._quiet_scale_up:
            self.scans_skipped += 1
            return
        stockouts = self.spot_stockouts
        self._scale_up_pass()
        # Each pool reserved up to its need or its room, and a pass writes
        # nothing, so a pass from the state it leaves would reserve
        # nothing -- unless the provider stocked out, which the next scan
        # must ask (and draw) again.
        if self.spot_stockouts == stockouts:
            self._quiet_scale_up = (
                self.api.state_version(), self._inflight, self._inflight_spot
            )

    def _scale_up_pass(self) -> None:
        if self._room(preemptible=False) <= 0 and (
            self.config.preemptible is None or self._room(preemptible=True) <= 0
        ):
            return  # every pool is full: each estimate would clamp to 0
        pending = [
            p
            for p in self.api.pending_pods()
            if p.failed_scheduling and not p.deletion_requested
        ]
        if not pending:
            return
        spot_pending = [p for p in pending if self._wants_spot(p)]
        ondemand_pending = [p for p in pending if not self._wants_spot(p)]
        self._scale_up_pool(ondemand_pending, preemptible=False)
        if self.config.preemptible is not None:
            self._scale_up_pool(spot_pending, preemptible=True)

    def _room(self, *, preemptible: bool) -> int:
        """Most machines the pool may reserve now: its headroom under
        ``max_nodes``, capped by the reservations batch."""
        if preemptible:
            spot = self.config.preemptible
            assert spot is not None
            room = spot.max_nodes - self.spot_target_count()
        else:
            room = self.config.max_nodes - self.target_count()
        cap = self.config.max_concurrent_reservations
        if cap is not None:
            room = min(room, cap - (self._inflight + self._inflight_spot))
        return room

    def _scale_up_pool(self, pending: List[Pod], *, preemptible: bool) -> None:
        if not pending:
            return
        room = self._room(preemptible=preemptible)
        if room <= 0:
            return  # _nodes_needed is pure and its result would clamp to 0
        if preemptible:
            machine_type = self.spot_machine_type
            inflight = self._inflight_spot
        else:
            machine_type = self.config.machine_type
            inflight = self._inflight
        needed = self._nodes_needed(pending, machine_type, preemptible=preemptible)
        for _ in range(max(0, min(needed - inflight, room))):
            self._reserve_node(preemptible=preemptible)

    def _nodes_needed(
        self, pending: List[Pod], machine_type: MachineType, *, preemptible: bool
    ) -> int:
        """First-fit-decreasing estimate of new nodes for pending pods.

        Pending pods are first packed into the *existing* ready nodes'
        free capacity — the scheduler simply may not have bound them yet
        — and only the overflow counts toward new machines (the upstream
        cluster autoscaler runs the same simulated-scheduling check).
        Each pool packs only into its own nodes.
        """
        # Hot at depth (tens of thousands of pending pods against a
        # thousand-node fleet), so the free-capacity scan runs over
        # component floats instead of ResourceVectors, once per stretch of
        # identical requests: each resumes where the previous one landed,
        # since the entries before that slot were left unchanged and would
        # reject it again. Both shortcuts reproduce the per-request first
        # fit (and therefore the returned node count) bit for bit.
        alloc = machine_type.allocatable
        requests = sorted(
            (p.spec.request for p in pending),
            key=lambda r: r.cores,
            reverse=True,
        )
        # Free capacity only shrinks during the pack, so a node that
        # cannot seat the smallest request never seats any: pack only the
        # nodes the capacity index says might, put back in list order.
        # First fit over that subsequence picks the same nodes.
        seats = sorted(
            self.api.capacity_index.descending(requests[-1].cores),
            key=list_key,
        )
        free_c: List[float] = []
        free_m: List[float] = []
        free_d: List[float] = []
        for n in seats:
            if (
                n.ready
                and not n.deleted
                and not n.unschedulable
                and n.preemptible == preemptible
            ):
                free = n.free()
                free_c.append(free.cores)
                free_m.append(free.memory_mb)
                free_d.append(free.disk_mb)
        # What the ready nodes cannot seat goes to new nodes, in order.
        overflow: List[Tuple[ResourceVector, int]] = []
        for req, stretch in groupby(requests):
            if not req.fits_in(alloc):
                continue  # can never fit; don't provision for it
            count = sum(1 for _ in stretch)
            req_c, req_m, req_d = req.cores, req.memory_mb, req.disk_mb
            i = 0
            while count and i < len(free_c):
                if (
                    req_c <= free_c[i] + FIT_EPSILON
                    and req_m <= free_m[i] + FIT_EPSILON
                    and req_d <= free_d[i] + FIT_EPSILON
                ):
                    free_c[i] = max(free_c[i] - req_c, 0.0)
                    free_m[i] = max(free_m[i] - req_m, 0.0)
                    free_d[i] = max(free_d[i] - req_d, 0.0)
                    count -= 1
                else:
                    i += 1
            if count:
                overflow.append((req, count))
        return first_fit_decreasing(overflow, alloc)

    def _reserve_node(self, *, preemptible: bool = False) -> None:
        if preemptible:
            spot = self.config.preemptible
            assert spot is not None
            if spot.stockout_prob > 0 and (
                self.rng.uniform("cloud.spot_stockout", 0.0, 1.0)
                < spot.stockout_prob
            ):
                # The provider has no spot capacity to sell right now;
                # the request fails outright (no VM, no retry here — the
                # still-pending pods drive another attempt next scan).
                self.spot_stockouts += 1
                self.tracer.emit("cluster", "node.spot_stockout", "fault")
                return
            self._inflight_spot += 1
        else:
            self._inflight += 1
        latency = self.rng.normal(
            "cloud.reserve",
            self.config.reservation_mean_s,
            self.config.reservation_std_s,
            floor=self.config.reservation_floor_s,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster", "node.reserve",
                latency_s=latency,
                inflight=self._inflight + self._inflight_spot,
                preemptible=preemptible,
            )
        self.engine.call_in(latency, self._reservation_complete, preemptible)

    def _reservation_complete(self, preemptible: bool = False) -> None:
        if preemptible:
            self._inflight_spot -= 1
        else:
            self._inflight -= 1
        if self.boot_failure_prob > 0 and (
            self.rng.uniform("cloud.boot_failure", 0.0, 1.0)
            < self.boot_failure_prob
        ):
            # The VM never boots / fails kubelet registration; the next
            # sync notices the still-pending pods and reserves again.
            self.boot_failures += 1
            self.tracer.emit("cluster", "node.boot_failure", "fault")
            return
        if preemptible:
            spot = self.config.preemptible
            if spot is None or self.spot_node_count() >= spot.max_nodes:
                return
        elif self.ondemand_node_count() >= self.config.max_nodes:
            return  # raced with another provisioning source; drop the VM
        self._register_node(preemptible=preemptible)

    def _register_node(self, *, preemptible: bool = False) -> Node:
        if preemptible:
            self._spot_seq += 1
            name = f"spot-{self._spot_seq:03d}"
            machine_type = self.spot_machine_type
        else:
            self._node_seq += 1
            name = f"node-{self._node_seq:03d}"
            machine_type = self.config.machine_type
        node = Node(
            name,
            machine_type,
            creation_time=self.engine.now,
            preemptible=preemptible,
        )
        node.ready = True
        node.ready_time = self.engine.now
        self.api.create(node)
        self.nodes_provisioned += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster", "node.ready",
                node=node.name, total=self.nodes_provisioned,
            )
        return node

    # ----------------------------------------------------------- preemption
    def _reclaim_tick(self) -> float:
        """Background spot reclamation: preempt one live spot node, then
        wait an exponential gap (memoryless, like real capacity churn)."""
        spot = self.config.preemptible
        assert spot is not None and spot.reclaim_interval_s is not None
        self.preempt_random_spot_nodes(1)
        gap = float(
            self.rng.stream("cloud.preempt.schedule").exponential(
                spot.reclaim_interval_s
            )
        )
        return max(1.0, gap)

    def preemptable_spot_nodes(self) -> List[Node]:
        """Live spot nodes with no reclamation notice outstanding."""
        return [
            n
            for n in self.api.nodes()
            if n.preemptible
            and n.ready
            and not n.deleted
            and n.preemption_notice_at is None
        ]

    def preempt_random_spot_nodes(self, count: int = 1) -> int:
        """Reclaim up to ``count`` random live spot nodes (seeded draw)."""
        preempted = 0
        for _ in range(count):
            candidates = self.preemptable_spot_nodes()
            if not candidates:
                break
            idx = int(self.rng.stream("cloud.preempt").integers(len(candidates)))
            if self.begin_preemption(candidates[idx]):
                preempted += 1
        return preempted

    def begin_preemption(self, node: Node) -> bool:
        """Fire the provider's reclamation notice for a spot node.

        The node is cordoned immediately and killed (with every pod still
        on it) once the grace window expires. Watchers see the notice as
        a MODIFIED Node event carrying ``preemption_notice_at`` — the
        informer-visible signal HTA's responder reacts to.
        """
        spot = self.config.preemptible
        if spot is None or not node.preemptible:
            return False
        if node.deleted or node.preemption_notice_at is not None:
            return False
        node.preemption_notice_at = self.engine.now
        node.preemption_grace_s = spot.grace_period_s
        node.unschedulable = True
        self.api.mark_modified(node)
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster", "node.preemption_notice", "fault",
                node=node.name, grace_s=spot.grace_period_s,
            )
        self.engine.call_in(spot.grace_period_s, self._complete_preemption, node)
        return True

    def _complete_preemption(self, node: Node) -> None:
        if node.deleted:
            return  # already reclaimed through another path
        for pod in list(node.active_pods()):
            self.api.try_delete("Pod", pod.name)
        node.ready = False
        node.deleted = True
        self.api.try_delete("Node", node.name)
        self.preemptions += 1
        self.tracer.emit("cluster", "node.preempted", "fault", node=node.name)

    # ----------------------------------------------------------- scale-down
    def _scale_down(self) -> None:
        # Never reclaim capacity while unschedulable pods wait: removing a
        # node the scheduler is about to use would thrash (the upstream
        # cluster autoscaler applies the same guard). Its scan reads only
        # pods, so it is memoized on the state version.
        version = self.api.state_version()
        seen, waiting = self._guard
        if version == seen:
            self.scans_skipped += 1
        else:
            waiting = any(
                p.failed_scheduling and not p.deletion_requested
                for p in self.api.pending_pods()
            )
            self._guard = (version, waiting)
        if waiting:
            self._idle_since.clear()
            self._rescan = True
            return
        now = self.engine.now
        if self._rescan:
            self._rescan = False
            changed: List[Node] = self.api.nodes()
        else:
            changed = list(self._changed)
        self._changed.clear()
        # A node no change reached is exactly as idle as at the last pass.
        for node in changed:
            if (
                not node.deleted
                and node.preemption_notice_at is None
                and node.is_idle()
                and self.api.try_get("Node", node.name) is node
            ):
                self._idle_since.setdefault(node.name, now)
            else:
                self._idle_since.pop(node.name, None)
        # Time-ordered, so the nodes idle long enough are a prefix.
        removable: List[Node] = []
        for name, since in self._idle_since.items():
            if now - since < self.config.idle_timeout_s:
                break
            removable.append(self.api.get("Node", name))  # type: ignore[arg-type]
        # Remove newest-first (ties by name), never dropping the on-demand
        # pool below its minimum (the spot pool has no floor).
        removable.sort(key=lambda n: (-n.meta.creation_time, n.name))
        ondemand = self.ondemand_node_count()
        for node in removable:
            if node.preemptible:
                self._remove_node(node)
            elif ondemand > self.config.min_nodes and self._remove_node(node):
                ondemand -= 1

    def _remove_node(self, node: Node) -> bool:
        """Delete an idle node; False when it has turned busy."""
        if node.active_pods():
            return False  # became busy between the scan and now
        node.unschedulable = True
        node.deleted = True
        self._idle_since.pop(node.name, None)
        self.api.try_delete("Node", node.name)
        self.nodes_removed += 1
        if self.tracer.enabled:
            self.tracer.emit("cluster", "node.removed", node=node.name)
        return True
