"""The cluster facade: wires API server, control loops, and config.

Experiments construct one :class:`Cluster` and get a fully running
control plane — scheduler binding pods, kubelets pulling images, cloud
controller autoscaling nodes, metrics server scraping. The Work Queue
runtime and HTA attach to it through ``cluster.api`` (objects + watches),
never through private references, mirroring how the real middleware talks
only to the Kubernetes API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.api import KubeApiServer
from repro.cluster.cloud import (
    CloudController,
    CloudControllerConfig,
    PreemptiblePoolConfig,
)
from repro.cluster.images import ImageRegistry
from repro.cluster.kubelet import Kubelet, KubeletManager
from repro.cluster.metrics_server import MetricsServer
from repro.cluster.node import MachineType, N1_STANDARD_4
from repro.cluster.pod import Pod
from repro.cluster.scheduler import KubeScheduler
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.tracing import MetricRecorder
from repro.telemetry.events import NULL_TRACER, Tracer
from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Everything needed to stand up a simulated GKE-like cluster."""

    machine_type: MachineType = N1_STANDARD_4
    min_nodes: int = 3
    max_nodes: int = 20
    node_reservation_mean_s: float = 149.0
    node_reservation_std_s: float = 4.0
    node_idle_timeout_s: float = 600.0
    autoscaler_scan_period_s: float = 10.0
    max_concurrent_reservations: int | None = None
    node_boot_failure_prob: float = 0.0
    scheduler_sync_period_s: float = 1.0
    registry_pull_bandwidth_mbps: float = 100.0
    registry_fixed_overhead_s: float = 2.0
    registry_jitter_cv: float = 0.02
    metrics_sample_period_s: float = 15.0
    metrics_window_s: float = 60.0
    #: Optional spot/preemptible node pool next to the on-demand pool.
    preemptible: Optional[PreemptiblePoolConfig] = None

    def cloud_config(self) -> CloudControllerConfig:
        return CloudControllerConfig(
            machine_type=self.machine_type,
            min_nodes=self.min_nodes,
            max_nodes=self.max_nodes,
            scan_period_s=self.autoscaler_scan_period_s,
            reservation_mean_s=self.node_reservation_mean_s,
            reservation_std_s=self.node_reservation_std_s,
            idle_timeout_s=self.node_idle_timeout_s,
            max_concurrent_reservations=self.max_concurrent_reservations,
            boot_failure_prob=self.node_boot_failure_prob,
            preemptible=self.preemptible,
        )


class Cluster:
    """A running simulated cluster: API server plus all control loops."""

    def __init__(
        self,
        engine: Engine,
        rng: RngRegistry,
        config: ClusterConfig = ClusterConfig(),
        recorder: Optional[MetricRecorder] = None,
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.rng = rng
        self.config = config
        self.recorder = recorder if recorder is not None else MetricRecorder(engine)
        #: One tracer shared by every control loop in this cluster.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.api = KubeApiServer(engine, tracer=self.tracer, metrics=metrics)
        self.registry = ImageRegistry(
            rng,
            pull_bandwidth_mbps=config.registry_pull_bandwidth_mbps,
            fixed_overhead_s=config.registry_fixed_overhead_s,
            jitter_cv=config.registry_jitter_cv,
        )
        self.kubelets = KubeletManager(
            engine, self.api, self.registry, tracer=self.tracer
        )
        self.scheduler = KubeScheduler(
            engine,
            self.api,
            sync_period=config.scheduler_sync_period_s,
            tracer=self.tracer,
        )
        self.cloud = CloudController(
            engine, self.api, rng, config.cloud_config(), tracer=self.tracer
        )
        self.metrics = MetricsServer(
            engine,
            self.api,
            sample_period=config.metrics_sample_period_s,
            window=config.metrics_window_s,
        )

    # ----------------------------------------------------------- lifecycle
    def stop(self) -> None:
        """Stop all control loops (lets an engine run drain to completion)."""
        self.scheduler.stop()
        self.cloud.stop()
        self.metrics.stop()

    # -------------------------------------------------------------- helpers
    def kubelet_for(self, pod: Pod) -> Kubelet:
        kubelet = self.kubelets.for_pod(pod)
        if kubelet is None:
            raise RuntimeError(f"pod {pod.name} has no node/kubelet")
        return kubelet

    def total_ready_cores(self) -> float:
        return sum(n.capacity.cores for n in self.api.ready_nodes())

    def node_count(self) -> int:
        """Ready nodes not flagged deleted (kept by the API server)."""
        return self.api.node_counts.ready

    def spot_node_count(self) -> int:
        """The preemptible subset of :meth:`node_count`."""
        return self.api.node_counts.ready_spot

    def describe(self) -> dict:
        """Diagnostic snapshot used by experiment logs."""
        return {
            "time": self.engine.now,
            "nodes": self.node_count(),
            "pending_pods": len(self.api.pending_pods()),
            "pods": len(self.api.pods()),
            "api_writes": self.api.writes,
        }
