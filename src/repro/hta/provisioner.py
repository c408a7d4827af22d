"""The resource provisioner: creates worker pods and drains workers.

§IV-A's conclusion — "the configuration with larger worker-pod should be
preferred" — fixes the worker-pod shape: one pod per node, requesting the
node's full allocatable resources. Scale-up creates such pods through the
API server (the scheduler/cloud-controller do the rest). Scale-down
*drains*: the least-loaded live workers stop accepting tasks, finish what
they run, and exit — never interrupting jobs (§II-C).

The provisioner also garbage-collects Succeeded worker pods, so drained
nodes go idle and the cloud controller can reclaim them.

With a :class:`ProvisionerFaultConfig` installed, the provisioner also
defends against a faulty substrate: pods pending past a timeout are
deleted and re-created with exponential backoff, and a **circuit
breaker** halts scale-up bursts while provisioning keeps failing (node
boot failures, registry outages), re-probing with a single pod after a
cooldown — closed/open/half-open, like any service-call breaker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType
from repro.cluster.images import ContainerImage
from repro.cluster.node import PREEMPTIBLE_LABEL
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine, PeriodicTask
from repro.wq.runtime import WorkerPodRuntime
from repro.wq.worker import Worker, WorkerState

if TYPE_CHECKING:  # pragma: no cover — avoid an hta→metrics import cycle
    from repro.metrics.cost import CostModel


@dataclass(frozen=True, slots=True)
class ProvisionerFaultConfig:
    """Defensive-provisioning tunables (None on the provisioner = off)."""

    #: A pod pending longer than this is presumed stuck (boot failure,
    #: stalled pull) and deleted; generous by default — several times a
    #: healthy cold start — so slow-but-alive provisioning is untouched.
    pending_timeout_s: float = 420.0
    #: Scan cadence for the timeout check.
    check_period_s: float = 30.0
    #: Exponential backoff for re-creating timed-out pods.
    retry_backoff_base_s: float = 10.0
    retry_backoff_max_s: float = 300.0
    #: Consecutive pod timeouts that trip the breaker open.
    breaker_threshold: int = 3
    #: Open-state cooldown before a single half-open probe is allowed.
    breaker_cooldown_s: float = 300.0

    def __post_init__(self) -> None:
        if self.pending_timeout_s <= 0 or self.check_period_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be positive")


@dataclass(frozen=True, slots=True)
class SpotPolicy:
    """How scale-up splits new workers between on-demand and spot pools.

    Preemptible capacity is cheap but revocable; the policy caps spot
    exposure at ``spot_fraction`` of every batch so a reclamation wave
    never takes the whole fleet. :meth:`from_cost_model` derives the
    fraction from the actual price gap — the cheaper spot is relative to
    on-demand, the more of it is worth the interruption risk.
    """

    #: Fraction of each scale-up batch placed on the preemptible pool.
    spot_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.spot_fraction <= 1.0:
            raise ValueError("spot_fraction must be within [0, 1]")

    def split(self, count: int) -> tuple:
        """``count`` new workers → ``(n_spot, n_ondemand)``."""
        if count <= 0:
            return (0, 0)
        n_spot = round(count * self.spot_fraction)
        return (n_spot, count - n_spot)

    @classmethod
    def from_cost_model(
        cls,
        cost_model: "CostModel",
        machine_type_name: str,
        *,
        pool: str = "spot",
        cap: float = 0.8,
    ) -> "SpotPolicy":
        """Spot share proportional to the discount, capped at ``cap``.

        A 79% discount (the GCE preemptible rate) yields ~0.79 → capped;
        a pool barely cheaper than on-demand is barely used.
        """
        discount = cost_model.spot_discount(machine_type_name, pool=pool)
        return cls(spot_fraction=min(cap, discount))


class WorkerProvisioner:
    """Creates/drains HTA worker pods."""

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        runtime: WorkerPodRuntime,
        *,
        image: ContainerImage,
        worker_request: ResourceVector,
        app_label: str = "wq-worker",
        name_prefix: str = "hta-worker",
        fault_config: Optional[ProvisionerFaultConfig] = None,
        spot_policy: Optional[SpotPolicy] = None,
    ) -> None:
        self.engine = engine
        self.api = api
        self.runtime = runtime
        self.image = image
        self.worker_request = worker_request
        self.app_label = app_label
        self.name_prefix = name_prefix
        #: None keeps every worker on-demand (and pods selector-free);
        #: set, each batch is split per the policy and pods carry a
        #: preemptible node selector so the scheduler pins the pools.
        self.spot_policy = spot_policy
        self._seq = itertools.count(1)
        self.pods_created = 0
        self.spot_pods_created = 0
        self.pods_reaped = 0
        self.drains_requested = 0
        # ----------------------------------------- defensive provisioning
        self.fault_config = fault_config
        #: "closed" (normal) / "open" (creations suppressed) /
        #: "half_open" (one probe allowed).
        self.breaker_state = "closed"
        self._breaker_open_until: Optional[float] = None
        self._probe_outstanding = False
        self._consecutive_timeouts = 0
        self._retry_attempt = 0
        self.pods_timed_out = 0
        self.creations_suppressed = 0
        self.retries_scheduled = 0
        self.breaker_opens = 0
        self.breaker_closes = 0
        #: Creations skipped because the API server was unavailable.
        self.creations_deferred = 0
        #: Creations refused because :meth:`stop` already ran — a pending
        #: retry scheduled by :meth:`_check_pending` can fire after the
        #: clean-up drain; creating then would leak an undrainable worker.
        self.creations_after_stop = 0
        self._stopped = False
        self._check_loop: Optional[PeriodicTask] = None
        if fault_config is not None:
            self._check_loop = PeriodicTask(
                engine, fault_config.check_period_s, self._check_pending
            )
        api.watch("Pod", self._on_pod_event, replay_existing=False)

    def stop(self) -> None:
        """Stop the defensive-provisioning loop and unsubscribe from the
        API server (clean-up stage; experiments share one server)."""
        self._stopped = True
        if self._check_loop is not None:
            self._check_loop.stop()
            self._check_loop = None
        self.api.unwatch("Pod", self._on_pod_event)

    # -------------------------------------------------------------- scaling
    def create_workers(self, count: int) -> List[Pod]:
        """Create ``count`` worker pods (whole-node sized)."""
        if self._stopped:
            # The clean-up drain already ran; a pod created now (e.g. a
            # pending-timeout retry that was in flight) would spawn a
            # worker no drain pass will ever visit.
            self.creations_after_stop += max(0, count)
            return []
        if not getattr(self.api, "available", True):
            # API server down: the create calls would fail. The next
            # (degraded) cycle re-evaluates demand and retries.
            self.creations_deferred += max(0, count)
            return []
        if self.fault_config is not None:
            count = self._breaker_admit(count)
        n_spot = 0
        if self.spot_policy is not None:
            n_spot, _ = self.spot_policy.split(count)
        created: List[Pod] = []
        for i in range(count):
            name = f"{self.name_prefix}-{next(self._seq):04d}"
            selector = {}
            if self.spot_policy is not None:
                selector = {PREEMPTIBLE_LABEL: "true" if i < n_spot else "false"}
            spec = PodSpec(
                self.image,
                self.worker_request,
                labels={"app": self.app_label},
                node_selector=selector,
            )
            pod = Pod(name, spec, creation_time=self.engine.now)
            self.api.create(pod)
            self.pods_created += 1
            if i < n_spot:
                self.spot_pods_created += 1
            created.append(pod)
        return created

    # ------------------------------------------------------ circuit breaker
    def _breaker_admit(self, count: int) -> int:
        """How many of ``count`` requested creations may proceed."""
        if count <= 0 or self.breaker_state == "closed":
            return count
        now = self.engine.now
        if self.breaker_state == "open":
            assert self._breaker_open_until is not None
            if now < self._breaker_open_until:
                self.creations_suppressed += count
                return 0
            self.breaker_state = "half_open"
            self._probe_outstanding = False
        # Half-open: let exactly one probe pod through at a time.
        if self._probe_outstanding:
            self.creations_suppressed += count
            return 0
        self._probe_outstanding = True
        if count > 1:
            self.creations_suppressed += count - 1
        return 1

    def _trip_breaker(self) -> None:
        assert self.fault_config is not None
        self.breaker_state = "open"
        self._breaker_open_until = (
            self.engine.now + self.fault_config.breaker_cooldown_s
        )
        self._probe_outstanding = False
        self._consecutive_timeouts = 0
        self.breaker_opens += 1

    def _close_breaker(self) -> None:
        if self.breaker_state != "closed":
            self.breaker_state = "closed"
            self._breaker_open_until = None
            self._probe_outstanding = False
            self.breaker_closes += 1
        self._consecutive_timeouts = 0
        self._retry_attempt = 0

    def _check_pending(self) -> None:
        """Delete pods pending past the timeout; retry with backoff."""
        cfg = self.fault_config
        assert cfg is not None
        if not getattr(self.api, "available", True):
            # Can't delete or re-create anything during an outage; don't
            # let timeout bookkeeping trip the breaker on stale reads.
            return
        now = self.engine.now
        timed_out = [
            p
            for p in self.pending_pods()
            if now - p.meta.creation_time >= cfg.pending_timeout_s
        ]
        if not timed_out:
            return
        for pod in timed_out:
            self.api.try_delete("Pod", pod.name)
        self.pods_timed_out += len(timed_out)
        self._consecutive_timeouts += len(timed_out)
        if self.breaker_state == "half_open":
            self._trip_breaker()  # the probe failed too; back to open
        elif (
            self.breaker_state == "closed"
            and self._consecutive_timeouts >= cfg.breaker_threshold
        ):
            self._trip_breaker()
        delay = min(
            cfg.retry_backoff_base_s * 2 ** self._retry_attempt,
            cfg.retry_backoff_max_s,
        )
        self._retry_attempt += 1
        self.retries_scheduled += len(timed_out)
        self.engine.call_in(delay, self.create_workers, len(timed_out))

    def drain_workers(self, count: int) -> List[Worker]:
        """Drain up to ``count`` live workers, idlest first."""
        candidates = [
            w
            for w in self.runtime.live_workers()
            if w.state in (WorkerState.READY, WorkerState.CONNECTING)
        ]
        # Idle first, then fewest running tasks, then youngest.
        candidates.sort(key=lambda w: (len(w.runs), -(w.connected_time or 0.0)))
        drained: List[Worker] = []
        for worker in candidates[:count]:
            worker.drain()
            self.drains_requested += 1
            drained.append(worker)
        return drained

    def drain_all(self) -> List[Worker]:
        """Clean-up stage: drain every live worker, and delete every
        Running pod that has no worker yet.

        A pod that turns Running while the API server's watch plane is
        down (an outage) gets no worker until the runtime's resync
        adopts it. Left alone, that adoption would start a worker after
        this drain, and nothing would ever drain it."""
        workers = list(self.runtime.live_workers())
        for worker in workers:
            worker.drain()
            self.drains_requested += 1
        for pod in self.running_pods():
            if self.runtime.worker_for(pod) is None:
                self.api.try_delete("Pod", pod.name)
        return workers

    # ------------------------------------------------------------- tracking
    def my_pods(self) -> List[Pod]:
        return [
            p
            for p in self.api.pods({"app": self.app_label})
            if p.name.startswith(self.name_prefix)
        ]

    def live_pods(self) -> List[Pod]:
        return [p for p in self.my_pods() if not p.phase.terminal]

    def pending_pods(self) -> List[Pod]:
        """Created but not yet running — the estimator's in-flight pods."""
        return [p for p in self.my_pods() if p.phase is PodPhase.PENDING]

    def running_pods(self) -> List[Pod]:
        return [p for p in self.my_pods() if p.phase is PodPhase.RUNNING]

    def cancel_pending(self, count: int) -> int:
        """Delete up to ``count`` not-yet-running pods (over-provisioned
        before they cost anything); newest first."""
        pending = sorted(
            self.pending_pods(), key=lambda p: p.meta.creation_time, reverse=True
        )
        removed = 0
        for pod in pending[:count]:
            self.api.try_delete("Pod", pod.name)
            removed += 1
        return removed

    # --------------------------------------------------------------- events
    def _on_pod_event(self, event: WatchEvent) -> None:
        pod = event.obj
        if not isinstance(pod, Pod) or not pod.name.startswith(self.name_prefix):
            return
        if event.type is WatchEventType.MODIFIED and pod.phase is PodPhase.RUNNING:
            # Provisioning works again: reset failure tracking and close
            # the breaker (a half-open probe reaching Running recovers).
            if self.fault_config is not None:
                self._close_breaker()
        if event.type is WatchEventType.MODIFIED and pod.phase is PodPhase.SUCCEEDED:
            # Reap completed (drained) worker pods so their node frees up.
            self.api.try_delete("Pod", pod.name)
            self.pods_reaped += 1
