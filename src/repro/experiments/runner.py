"""Single-entry experiment API: build a stack, run a policy, collect.

One front door — :func:`run_experiment` — takes an
:class:`ExperimentSpec` naming the autoscaling policy under study and
runs it on the shared substrate (cluster + network + Work Queue master),
so differences in the result are attributable to the policy alone. The
policies mirror the resource-provisioning modes the paper compares:

* ``"hta"`` — the full HTA pipeline (fig 8): workflow manager → HTA
  operator (warm-up gating) → Work Queue master; HTA creates/drains
  worker pods directly (pass ``options={"hta_config": HtaConfig(...,
  forecast_arrivals=True)}`` for the forecast-fed hybrid mode);
* ``"predictive"`` — the forecast-driven policy: a
  :class:`~repro.forecast.scaler.PredictiveScaler` sizes the pool for
  demand predicted one init cycle ahead, draining (never deleting) on
  the way down;
* ``"hpa"`` — the baseline: worker pods held by a replica controller
  scaled by the Horizontal Pod Autoscaler on CPU;
* ``"queue"`` — the KEDA-style queue-length baseline;
* ``"static"`` — a fixed worker pool (fig 4's sizing study and fig 2's
  "ideal" reference).

New policies plug in through :func:`register_policy`.

Telemetry (the :mod:`repro.telemetry` tracer + metrics registry) is
wired through every layer when the spec carries an enabled
:class:`~repro.telemetry.session.TelemetryConfig`; disabled runs pay one
early-returning call per instrumented site.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.chaos import ChaosInjector
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.hpa import HorizontalPodAutoscaler, HpaConfig
from repro.cluster.images import ContainerImage
from repro.cluster.pod import PodSpec
from repro.cluster.replicaset import WorkerReplicaSet
from repro.cluster.resources import ResourceVector
from repro.hta.inittime import FixedInitTime, InitTimeTracker
from repro.hta.operator import HtaConfig, HtaOperator
from repro.hta.preemption import PreemptionResponder
from repro.hta.provisioner import ProvisionerFaultConfig, WorkerProvisioner
from repro.makeflow.dag import WorkflowGraph
from repro.makeflow.manager import WorkflowManager, WorkflowStream
from repro.metrics.accounting import AccountingSummary, ResourceAccountant
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.tracing import MetricRecorder
from repro.telemetry.session import (
    TelemetryConfig,
    TelemetrySession,
    default_sink,
    default_telemetry,
)
from repro.wq.estimator import (
    AllocationEstimator,
    ConservativeEstimator,
    DeclaredResourceEstimator,
    MonitorEstimator,
)
from repro.wq.faults import (
    BlackHoleProfile,
    CategoryFaultProfile,
    RetryPolicy,
    SpeculationConfig,
    TaskFaultModel,
    ValueFaultModel,
    ValueFaultProfile,
)
from repro.wq.health import HealthConfig
from repro.wq.link import Link
from repro.wq.dispatch import DispatchConfig, MasterStats
from repro.wq.master import Master
from repro.wq.migration import MigrationConfig, MigrationCoordinator
from repro.wq.monitor import ResourceMonitor
from repro.wq.runtime import WorkerPodRuntime
from repro.wq.sharding import FailoverConfig, FailoverCoordinator, Foreman
from repro.wq.task import Task
from repro.workloads.arrivals import WorkflowArrival

#: One workflow (a DAG or a bag of independent tasks) or a stream of
#: workflow arrivals sharing the stack (the long-running facility).
Workload = Union[WorkflowGraph, Sequence[Task], Sequence[WorkflowArrival]]

#: The worker container image (the paper pulls from a private registry).
DEFAULT_WORKER_IMAGE = ContainerImage("wq-worker", 500.0)

#: Informer relist-and-resync cadence under a fault profile: a pod whose
#: watch event died in an API outage is picked up at the next relist.
_RESYNC_PERIOD_S = 60.0


def ensure_graph(workload: Workload) -> WorkflowGraph:
    """Accept either a DAG or a bag of independent tasks."""
    if isinstance(workload, WorkflowGraph):
        return workload
    return WorkflowGraph(list(workload))


def _arrivals(workload: Workload) -> Optional[List[WorkflowArrival]]:
    """The arrivals of a stream workload; None for one workflow."""
    if isinstance(workload, WorkflowGraph):
        return None
    items = list(workload)
    arrivals = [item for item in items if isinstance(item, WorkflowArrival)]
    if not arrivals:
        return None
    if len(arrivals) != len(items):
        raise TypeError("a workload mixes tasks and workflow arrivals")
    return arrivals


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """Fault injection for one run — every layer at once, all seeded.

    Zero probabilities / None intervals disable the corresponding fault,
    so the default instance injects nothing. It is not the same run as
    ``StackConfig(faults=None)``, though: any profile also arms the
    defences a hostile substrate needs — straggler speculation (unless
    ``speculation=None``), retry backoff, the defended worker
    provisioner, the robust (median-of-5) init-time tracker, and a 60 s
    informer relist for the pod runtime and HTA's tracker.
    """

    # -- task-level faults (per execution attempt, per-category stream)
    task_failure_prob: float = 0.0
    task_exhaustion_prob: float = 0.0
    exhaustion_factor: float = 1.5
    max_retries: Optional[int] = None
    #: Straggler speculation (None disables it).
    speculation: Optional[SpeculationConfig] = field(
        default_factory=SpeculationConfig
    )
    # -- value faults (wrong data, not no data) and the integrity layer
    #: Probability a completed attempt delivers a corrupted payload.
    result_corruption_prob: float = 0.0
    #: Probability a shipped migration checkpoint arrives corrupted.
    checkpoint_corruption_prob: float = 0.0
    #: Content-digest verification at the master. On by default (and
    #: free when nothing corrupts); the attribution-off experiment arm
    #: turns it off to measure what corruption costs unchecked.
    verify: bool = True
    #: Arm the per-worker health ledger (EWMA scoring, black-hole
    #: quarantine, poison-task blame attribution); None leaves it off.
    health: Optional[HealthConfig] = None
    #: One-shot black-hole storm: at this simulated time, turn
    #: ``black_hole_count`` random workers into black holes.
    black_hole_at_s: Optional[float] = None
    black_hole_count: int = 1
    black_hole_mode: str = "fast-fail"
    black_hole_latency_s: float = 1.0
    # -- infrastructure chaos
    node_crash_interval_s: Optional[float] = None
    #: One-shot preemption wave: reclaim ``preemption_wave_size`` spot
    #: nodes at this simulated time (requires a preemptible pool).
    preemption_wave_at_s: Optional[float] = None
    preemption_wave_size: int = 1
    # -- provisioning faults
    boot_failure_prob: float = 0.0
    boot_failure_duration_s: Optional[float] = None
    pull_stall_factor: float = 1.0
    pull_stall_duration_s: Optional[float] = None
    # -- control-plane faults
    #: Kill the master at this simulated time (None = never).
    master_crash_at_s: Optional[float] = None
    #: How long the crashed master stays down before restarting.
    master_restart_delay_s: float = 60.0
    #: Replay the transaction journal on restart; False models a cold
    #: restart that forgets everything but the submitted task set.
    journal_replay: bool = True
    #: API-server outage window (None = never).
    api_outage_at_s: Optional[float] = None
    api_outage_duration_s: float = 300.0


@dataclass(frozen=True, slots=True)
class StackConfig:
    """The substrate shared by every policy."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    link_capacity_mbps: float = 500.0
    per_stream_overhead: float = 0.0
    image: ContainerImage = DEFAULT_WORKER_IMAGE
    #: Worker pod resource request; None = the node's full allocatable.
    worker_request: Optional[ResourceVector] = None
    seed: int = 0
    #: Hard wall on simulated time (a run exceeding it raises).
    max_sim_time_s: float = 100_000.0
    #: Sampling period of the accountant (1 s = the paper's resolution).
    accounting_period_s: float = 1.0
    #: Fault injection; None runs the substrate fault-free.
    faults: Optional[FaultProfile] = None

    def resolved_worker_request(self) -> ResourceVector:
        if self.worker_request is not None:
            return self.worker_request
        return self.cluster.machine_type.allocatable


class _Stack:
    """Everything instantiated for one run. A context manager: ``close``
    releases the watch subscriptions and control loops so back-to-back
    runs in one process never leak handlers."""

    def __init__(
        self,
        config: StackConfig,
        estimator_kind: str = "monitor",
        *,
        telemetry: Optional[TelemetryConfig] = None,
    ):
        self.config = config
        self.engine = Engine()
        self.rng = RngRegistry(config.seed)
        self.recorder = MetricRecorder(self.engine)
        #: One tracer + metrics registry per run, bound to this engine's
        #: clock. Disabled (the default) hands out NULL_TRACER.
        self.telemetry = TelemetrySession(lambda: self.engine.now, telemetry)
        self.tracer = self.telemetry.tracer
        self.metrics = self.telemetry.metrics
        self.cluster = Cluster(
            self.engine,
            self.rng,
            config.cluster,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.link = Link(
            self.engine,
            config.link_capacity_mbps,
            per_stream_overhead=config.per_stream_overhead,
        )
        self.monitor = ResourceMonitor()
        faults = config.faults
        fault_model: Optional[TaskFaultModel] = None
        retry_policy: Optional[RetryPolicy] = None
        value_faults: Optional[ValueFaultModel] = None
        if faults is not None:
            fault_model = TaskFaultModel(
                self.rng,
                default=CategoryFaultProfile(
                    failure_prob=faults.task_failure_prob,
                    exhaustion_prob=faults.task_exhaustion_prob,
                    exhaustion_factor=faults.exhaustion_factor,
                ),
            )
            retry_policy = RetryPolicy()
            if (
                faults.result_corruption_prob > 0
                or faults.checkpoint_corruption_prob > 0
            ):
                value_faults = ValueFaultModel(
                    self.rng,
                    default=ValueFaultProfile(
                        result_corruption_prob=faults.result_corruption_prob,
                        checkpoint_corruption_prob=(
                            faults.checkpoint_corruption_prob
                        ),
                    ),
                )
        self.dispatch_config = DispatchConfig(
            fault_model=fault_model,
            retry_policy=retry_policy,
            speculation=faults.speculation if faults is not None else None,
            replay_journal=faults.journal_replay if faults is not None else True,
            value_faults=value_faults,
            verify=faults.verify if faults is not None else True,
            health=faults.health if faults is not None else None,
        )
        self.master = Master(
            self.engine,
            self.link,
            config=self.dispatch_config,
            estimator=self._make_estimator(estimator_kind),
            monitor=self.monitor,
            tracer=self.tracer,
            # The wq histograms cost one observe per dispatch/completion;
            # only armed when the run actually records telemetry.
            metrics=self.metrics if self.telemetry.enabled else None,
        )
        if faults is not None and faults.max_retries is not None:
            self.master.max_retries = faults.max_retries
        self.runtime = WorkerPodRuntime(
            self.engine,
            self.cluster.api,
            self.cluster.kubelets,
            self.master,
            # Under control-plane faults the runtime must relist like any
            # informer: a pod whose Running event died in an API outage
            # would otherwise never get a worker (and leak forever).
            resync_period_s=_RESYNC_PERIOD_S if faults is not None else None,
        )
        self.worker_request = config.resolved_worker_request()
        self.chaos: Optional[ChaosInjector] = None
        #: Set by the sharded policy when ``failover=True`` — the shard
        #: failover coordinator, exposed for result collection.
        self.failover: Optional[FailoverCoordinator] = None
        if faults is not None:
            self.chaos = ChaosInjector(
                self.engine,
                self.cluster.api,
                self.rng,
                cloud=self.cluster.cloud,
                registry=self.cluster.registry,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            if faults.node_crash_interval_s is not None:
                self.chaos.schedule_node_failures(faults.node_crash_interval_s)
            if faults.boot_failure_prob > 0:
                self.chaos.begin_boot_failures(
                    faults.boot_failure_prob,
                    duration_s=faults.boot_failure_duration_s,
                )
            if faults.pull_stall_factor > 1.0:
                self.chaos.begin_image_pull_stall(
                    faults.pull_stall_factor,
                    duration_s=faults.pull_stall_duration_s,
                )
            if faults.master_crash_at_s is not None:
                self.chaos.schedule_master_crash(
                    self.master,
                    at_s=faults.master_crash_at_s,
                    restart_delay_s=faults.master_restart_delay_s,
                )
            if faults.api_outage_at_s is not None:
                self.chaos.schedule_api_outage(
                    at_s=faults.api_outage_at_s,
                    duration_s=faults.api_outage_duration_s,
                )
            if faults.preemption_wave_at_s is not None:
                self.chaos.schedule_preemption_wave(
                    at_s=faults.preemption_wave_at_s,
                    count=faults.preemption_wave_size,
                )
            if faults.black_hole_at_s is not None:
                self.chaos.schedule_black_holes(
                    self.master,
                    at_s=faults.black_hole_at_s,
                    count=faults.black_hole_count,
                    profile=BlackHoleProfile(
                        mode=faults.black_hole_mode,
                        latency_s=faults.black_hole_latency_s,
                    ),
                )

    def _make_estimator(self, kind: str) -> AllocationEstimator:
        if kind == "monitor":
            return MonitorEstimator(self.monitor)
        if kind == "declared":
            return DeclaredResourceEstimator()
        if kind == "conservative":
            return ConservativeEstimator()
        raise ValueError(f"unknown estimator kind {kind!r}")

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release everything holding a subscription or a periodic loop."""
        self.runtime.close()
        self.master.close()
        if self.chaos is not None:
            self.chaos.stop()
        self.cluster.stop()

    def __enter__(self) -> "_Stack":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class ExperimentResult:
    """Everything an experiment harness needs to print its figure/table."""

    name: str
    makespan_s: float
    accounting: AccountingSummary
    accountant: ResourceAccountant
    tasks_total: int
    tasks_completed: int
    tasks_requeued: int
    nodes_peak: int
    workers_started: int
    extras: Dict[str, float] = field(default_factory=dict)
    #: The run's tracer + metrics registry (None for results built by
    #: code paths predating telemetry).
    telemetry: Optional[TelemetrySession] = None
    #: Each workflow's own makespan, in arrival order, for an arrival
    #: stream (None for one workflow). A stream's ``makespan_s`` is its
    #: last finish time.
    workflow_makespans: Optional[List[float]] = None

    @property
    def workflows(self) -> int:
        spans = self.workflow_makespans
        return 1 if spans is None else len(spans)

    @property
    def mean_workflow_makespan_s(self) -> float:
        spans = self.workflow_makespans
        return self.makespan_s if spans is None else sum(spans) / len(spans)

    @property
    def throughput_tasks_per_hour(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.tasks_completed / (self.makespan_s / 3600.0)

    def summary(self) -> str:
        a = self.accounting
        line = (
            f"{self.name}: runtime {self.makespan_s:.0f}s, "
            f"waste {a.accumulated_waste_core_s:.0f} core*s, "
            f"shortage {a.accumulated_shortage_core_s:.0f} core*s, "
            f"utilization {a.utilization:.1%}, "
            f"tasks {self.tasks_completed}/{self.tasks_total}"
        )
        if self.workflow_makespans is None:
            return line
        return (
            f"{line} | {self.workflows} workflows, "
            f"mean makespan {self.mean_workflow_makespan_s:.0f}s, "
            f"{self.throughput_tasks_per_hour:.0f} tasks/h"
        )

    def series(self, name: str):
        return self.accountant.series(name)

    @property
    def trace_events(self):
        """The run's trace events ([] when tracing was disabled)."""
        if self.telemetry is None:
            return []
        return self.telemetry.tracer.events


class ExperimentTimeout(RuntimeError):
    """The workload did not finish within ``max_sim_time_s``."""


class WorkflowFailed(RuntimeError):
    """A task was permanently abandoned; the DAG can never complete."""


#: Why :func:`drive` returned.
FINISHED = "finished"
SIM_LIMIT = "sim limit"
DRAINED = "queue drained"
DEADLINE = "wall deadline"


def drive(
    engine: Engine,
    finished: Callable[[], bool],
    *,
    until: float,
    chunk_s: Optional[float] = None,
    max_events: Optional[int] = None,
    deadline: Optional[float] = None,
) -> str:
    """Advance ``engine`` in chunks until ``finished()`` holds, the clock
    reaches ``until``, the event queue drains, or ``time.perf_counter()``
    passes ``deadline``; return which of :data:`FINISHED`,
    :data:`SIM_LIMIT`, :data:`DRAINED` or :data:`DEADLINE` stopped it,
    checked in that order before every chunk.

    A chunk runs to ``min(until, now + chunk_s)`` (to ``until`` when
    ``chunk_s`` is None) and at most ``max_events`` events. Chunking
    never changes the simulation, only where the checks land: the clock
    a caller reads after a stop, and so any accounting window it closes
    there, sits on a chunk boundary.
    """
    while True:
        if finished():
            return FINISHED
        if engine.now >= until:
            return SIM_LIMIT
        if engine.peek() is None:
            return DRAINED
        if deadline is not None and time.perf_counter() > deadline:
            return DEADLINE
        engine.run(
            until=until if chunk_s is None else min(until, engine.now + chunk_s),
            max_events=max_events,
        )


def _collect(
    name: str,
    stack: _Stack,
    manager: Union[WorkflowManager, WorkflowStream],
    accountant: ResourceAccountant,
    graph: Union[WorkflowGraph, WorkflowStream],
    **extras: float,
) -> ExperimentResult:
    t0, t1 = accountant.window()
    master = stack.master
    fault_extras: Dict[str, float] = {
        "goodput_core_s": master.goodput_core_s(),
        "wasted_core_s": master.wasted_core_s,
        "tasks_failed": float(master.tasks_failed),
        "tasks_exhausted": float(master.tasks_exhausted),
        "escalations": float(master.escalations),
        "tasks_speculated": float(master.tasks_speculated),
        "speculation_wins": float(master.speculation_wins),
        "tasks_abandoned": float(len(master.abandoned)),
    }
    if stack.chaos is not None:
        fault_extras["chaos_nodes_killed"] = float(stack.chaos.nodes_killed)
        fault_extras["chaos_pods_killed"] = float(stack.chaos.pods_killed)
        fault_extras["boot_failures"] = float(stack.cluster.cloud.boot_failures)
        fault_extras["chaos_preemptions"] = float(stack.chaos.preemptions_total)
        fault_extras["chaos_partitions"] = float(stack.chaos.partition_windows)
        fault_extras["preemptions"] = float(stack.cluster.cloud.preemptions)
        fault_extras["spot_stockouts"] = float(stack.cluster.cloud.spot_stockouts)
        fault_extras["partitions_detected"] = float(master.partitions_detected)
        fault_extras["workers_declared_lost"] = float(
            master.workers_declared_lost
        )
        fault_extras["tasks_evacuated"] = float(master.tasks_evacuated)
    if master.crashes > 0 or stack.chaos is not None:
        fault_extras["master_crashes"] = float(master.crashes)
        fault_extras["tasks_rerun"] = float(master.tasks_rerun)
        fault_extras["duplicate_results"] = float(master.duplicate_results)
        fault_extras["journal_records"] = float(len(master.journal))
        fault_extras["api_outages"] = float(stack.cluster.api.api_outages)
        fault_extras["dropped_watch_events"] = float(
            stack.cluster.api.dropped_events
        )
        if master.last_crash_at is not None:
            recovered = (
                master.first_completion_after_recovery_at
                if master.first_completion_after_recovery_at is not None
                else master.last_recovered_at
            )
            if recovered is not None:
                fault_extras["recovery_latency_s"] = recovered - master.last_crash_at
    integrity_armed = (
        master.value_faults is not None
        or master.health is not None
        or not master.verify
        or (stack.chaos is not None and stack.chaos.black_holes_injected > 0)
    )
    if integrity_armed:
        fault_extras["verify_fails"] = float(master.verify_fails)
        fault_extras["checkpoint_verify_fails"] = float(
            master.checkpoint_verify_fails
        )
        fault_extras["corrupted_completes"] = float(master.corrupted_completes)
        fault_extras["clean_goodput_core_s"] = master.clean_goodput_core_s()
        fault_extras["quarantines"] = float(master.quarantines)
        fault_extras["unquarantines"] = float(master.unquarantines)
        fault_extras["tasks_poisoned"] = float(master.tasks_poisoned)
        fault_extras["quarantined_rejected"] = float(master.quarantined_rejected)
        if stack.chaos is not None:
            fault_extras["corruptions_injected"] = float(
                stack.chaos.corruptions_injected
            )
            fault_extras["black_holes_injected"] = float(
                stack.chaos.black_holes_injected
            )
    fault_extras.update(extras)
    return ExperimentResult(
        name=name,
        makespan_s=manager.makespan or 0.0,
        accounting=accountant.summarize(),
        accountant=accountant,
        tasks_total=len(graph),
        tasks_completed=len(stack.master.done),
        tasks_requeued=stack.master.tasks_requeued,
        nodes_peak=int(accountant.series("nodes").maximum(t0, t1)),
        workers_started=stack.runtime.workers_started,
        extras=fault_extras,
        telemetry=stack.telemetry,
        workflow_makespans=(
            manager.workflow_makespans
            if isinstance(manager, WorkflowStream)
            else None
        ),
    )


def _make_accountant(
    stack: _Stack, *, shortage_extra=None, extra_gauges=None
) -> ResourceAccountant:
    master = stack.master

    def shortage() -> float:
        value = master.cores_waiting()
        if shortage_extra is not None:
            value += shortage_extra()
        return value

    acc = ResourceAccountant(
        stack.engine,
        supply=master.supplied_cores,
        in_use=master.cores_in_use,
        shortage=shortage,
        nodes=lambda: float(stack.cluster.node_count()),
        period=stack.config.accounting_period_s,
    )
    # One stats() per sample (a foreman sums it over its shards): the
    # sampler polls in registration order, so "workers_connected" takes
    # it and "workers_idle" reads what it took, as "supply" does above.
    taken: List[MasterStats] = []

    def workers_connected() -> float:
        taken[:] = [master.stats()]
        return float(taken[0].workers_connected)

    acc.sampler.add_gauge("workers_connected", workers_connected)
    acc.sampler.add_gauge("workers_idle", lambda: float(taken[0].workers_idle))
    # Preemptible subset of the node count — CostModel.cost_of_mixed
    # bills it at the spot rate (flat zero without a spot pool).
    acc.sampler.add_gauge(
        "nodes_spot", lambda: float(stack.cluster.spot_node_count())
    )
    if extra_gauges:
        for gname, fn in extra_gauges.items():
            acc.sampler.add_gauge(gname, fn)
    return acc


# =================================================== the experiment API
@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One experiment run, fully described.

    ``workload`` is one workflow (a DAG or a task bag) or a sequence of
    :class:`~repro.workloads.arrivals.WorkflowArrival` — a stream of
    workflows sharing one stack, each started at its arrival time.
    ``policy`` names an entry in the policy registry (``hta``,
    ``predictive``, ``hpa``, ``queue``, ``static``, or anything added
    via :func:`register_policy`); ``options`` carries the policy's own
    knobs (e.g. ``{"target_cpu": 0.8}`` for HPA, ``{"n_workers": 10}``
    for static). ``telemetry=None`` defers to the process-wide default
    installed by the CLI's ``--trace-out`` (and to "disabled" when
    there is none).
    """

    workload: Workload
    policy: str = "hta"
    name: Optional[str] = None
    stack: Optional[StackConfig] = None
    seed: Optional[int] = None
    telemetry: Optional[TelemetryConfig] = None
    options: Mapping[str, object] = field(default_factory=dict)


@dataclass
class _PolicyHarness:
    """What a policy builder hands back to :func:`run_experiment`.

    The runner owns the generic sequence (stack → manager → accountant →
    drive → collect); the harness injects the policy-specific pieces at
    the same points the historical per-policy functions did, so a fixed
    seed reproduces their runs exactly.
    """

    #: Default result name (used when the spec does not set one).
    name: str
    #: What the WorkflowManager submits ready jobs to (operator/master).
    submitter: object
    #: Called with the freshly built manager, or the stream for an
    #: arrival stream (e.g. done-signal wiring).
    on_manager: Optional[Callable[[WorkflowManager], None]] = None
    #: Extra cores counted as shortage (HTA's warm-up-held tasks).
    shortage_extra: Optional[Callable[[], float]] = None
    #: Extra accountant gauges.
    gauges: Dict[str, Callable[[], float]] = field(default_factory=dict)
    #: Called right before the drive loop (e.g. ``operator.start``).
    start: Optional[Callable[[], None]] = None
    #: Called right after the workflow completes (scaler shutdowns).
    finish: Optional[Callable[[], None]] = None
    #: Policy-specific extras for the result (receives the accountant).
    extras: Optional[Callable[[ResourceAccountant], Dict[str, float]]] = None


@dataclass(frozen=True, slots=True)
class PolicyDefinition:
    """A registry entry: how to validate, size, and build one policy."""

    key: str
    #: Builds the policy on the stack; the graph is None for a stream.
    build: Callable[
        ["_Stack", StackConfig, Optional[WorkflowGraph], Dict], _PolicyHarness
    ]
    #: Dispatch-estimator kind the master should use (resolved from the
    #: options *before* the stack is built).
    estimator_kind: Callable[[Dict], str] = lambda options: "monitor"
    #: Early option validation (raises before anything is constructed).
    validate: Optional[Callable[[Dict], None]] = None


POLICIES: Dict[str, PolicyDefinition] = {}


def register_policy(definition: PolicyDefinition) -> PolicyDefinition:
    """Add (or replace) a policy in the registry; returns it unchanged."""
    POLICIES[definition.key] = definition
    return definition


def _take(options: Dict, key: str, default=None):
    value = options.pop(key, None)
    return default if value is None else value


def _reject_unknown(policy: str, options: Dict) -> None:
    if options:
        raise ValueError(
            f"unknown option(s) for policy {policy!r}: {sorted(options)}"
        )


@contextmanager
def _assembled(
    spec: ExperimentSpec, telemetry: Optional[TelemetryConfig]
) -> Iterator[
    Tuple[
        _Stack,
        Union[WorkflowGraph, WorkflowStream],
        _PolicyHarness,
        Union[WorkflowManager, WorkflowStream],
        ResourceAccountant,
    ]
]:
    """Build ``spec``'s stack, policy, workflow manager and accountant,
    and start the policy, ready for a drive loop; the stack closes when
    the block exits. An arrival stream yields its
    :class:`~repro.makeflow.manager.WorkflowStream` as both the workload
    (its length is the task count) and the manager."""
    try:
        policy = POLICIES[spec.policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {spec.policy!r}; known: {sorted(POLICIES)}"
        ) from None
    options: Dict = dict(spec.options)
    if policy.validate is not None:
        policy.validate(options)
    arrivals = _arrivals(spec.workload)
    cfg = spec.stack if spec.stack is not None else StackConfig()
    if spec.seed is not None:
        cfg = replace(cfg, seed=spec.seed)
    with _Stack(
        cfg, estimator_kind=policy.estimator_kind(options), telemetry=telemetry
    ) as stack:
        graph = ensure_graph(spec.workload) if arrivals is None else None
        harness = policy.build(stack, cfg, graph, options)
        _reject_unknown(spec.policy, options)
        if arrivals is None:
            manager = WorkflowManager(
                stack.engine, graph, harness.submitter, recorder=stack.recorder
            )
        else:
            manager = graph = WorkflowStream(
                stack.engine, arrivals, harness.submitter, recorder=stack.recorder
            )
        if harness.on_manager is not None:
            harness.on_manager(manager)
        accountant = _make_accountant(
            stack,
            shortage_extra=harness.shortage_extra,
            extra_gauges=harness.gauges or None,
        )
        if harness.start is not None:
            harness.start()
        yield stack, graph, harness, manager, accountant


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment described by ``spec``; the single entry point
    behind every figure harness and example."""
    telemetry = (
        spec.telemetry if spec.telemetry is not None else default_telemetry()
    )
    with _assembled(spec, telemetry) as (stack, graph, harness, manager, accountant):
        engine = stack.engine
        accountant.start()
        manager.start()
        stop = drive(
            engine,
            lambda: manager.done or manager.failed,
            until=stack.config.max_sim_time_s,
            chunk_s=60.0,
        )
        if stop == FINISHED and not manager.done:
            raise WorkflowFailed(
                f"task(s) {sorted(manager.failed_task_ids)} permanently "
                f"abandoned at t={engine.now:.0f}s"
            )
        if stop == SIM_LIMIT:
            raise ExperimentTimeout(
                f"workflow incomplete at t={engine.now:.0f}s "
                f"({manager.progress():.0%} done)"
            )
        if stop == DRAINED:
            raise ExperimentTimeout(
                f"event queue drained at t={engine.now:.0f}s with workflow "
                f"{manager.progress():.0%} done — a control loop stopped early"
            )
        accountant.stop()
        if harness.finish is not None:
            harness.finish()
        extras = harness.extras(accountant) if harness.extras is not None else {}
        name = spec.name if spec.name is not None else harness.name
        result = _collect(name, stack, manager, accountant, graph, **extras)
    stack.telemetry.export(result.name)
    sink = default_sink()
    if sink is not None and stack.telemetry.enabled:
        sink.record(result.name, stack.telemetry.tracer.events)
    return result


# --------------------------------------------------------------------- HTA
def _hta_tracker(stack: _Stack, cfg: StackConfig, fixed_init_time_s):
    """The init-time source HTA-style policies plan with: under faults,
    the median of the last 5 cold starts with a periodic informer
    resync, else the latest one."""
    if fixed_init_time_s is not None:
        return FixedInitTime(fixed_init_time_s)
    faulty = cfg.faults is not None
    return InitTimeTracker(
        stack.cluster.api,
        prior_s=160.0,
        selector_label="wq-worker",
        robust=faulty,
        resync_period_s=_RESYNC_PERIOD_S if faulty else None,
    )


def _provisioner_faults(cfg: StackConfig) -> Optional[ProvisionerFaultConfig]:
    """Defensive provisioning for the drain-based policies (HTA /
    predictive), armed with any fault profile."""
    return ProvisionerFaultConfig() if cfg.faults is not None else None


def _build_hta(
    stack: _Stack, cfg: StackConfig, graph: WorkflowGraph, options: Dict
) -> _PolicyHarness:
    hta_config = _take(options, "hta_config")
    fixed_init_time_s = _take(options, "fixed_init_time_s")
    #: Optional spot split for the worker pool; ``spot_aware`` adds the
    #: preemption responder + survival-discounted planning on top (off =
    #: "vanilla" HTA that buys spot but ignores reclamation).
    spot_policy = _take(options, "spot_policy")
    spot_aware = bool(_take(options, "spot_aware", False))
    #: Optional checkpoint/restore migration: a MigrationConfig (or a
    #: bare policy string like "batched-fluid") builds a coordinator the
    #: preemption responder drains doomed spot workers through instead
    #: of requeueing them from scratch. Requires ``spot_aware``.
    migration_opt = _take(options, "migration")
    if hta_config is None:
        hta_config = HtaConfig(
            initial_workers=cfg.cluster.min_nodes,
            max_workers=cfg.cluster.max_nodes,
        )
    provisioner = WorkerProvisioner(
        stack.engine,
        stack.cluster.api,
        stack.runtime,
        image=cfg.image,
        worker_request=stack.worker_request,
        fault_config=_provisioner_faults(cfg),
        spot_policy=spot_policy,
    )
    migration = None
    if migration_opt is not None:
        if not spot_aware:
            raise ValueError("migration= requires spot_aware=True")
        mig_config = (
            MigrationConfig(policy=migration_opt)
            if isinstance(migration_opt, str)
            else migration_opt
        )
        migration = MigrationCoordinator(
            stack.engine,
            stack.master,
            mig_config,
            tracer=stack.tracer,
            metrics=stack.metrics,
        )
    responder = None
    if spot_aware:
        responder = PreemptionResponder(
            stack.engine,
            stack.cluster.api,
            stack.master,
            stack.runtime,
            provisioner,
            tracer=stack.tracer,
            migration=migration,
        )
    tracker = _hta_tracker(stack, cfg, fixed_init_time_s)
    operator = HtaOperator(
        stack.engine,
        stack.master,
        provisioner,
        tracker,
        hta_config,
        tracer=stack.tracer,
        preemption=responder,
    )

    def hta_extras(_acc) -> Dict[str, float]:
        extras = dict(
            init_time_samples=float(tracker.sample_count),
            plans=float(len(operator.plans)),
            pods_created=float(provisioner.pods_created),
            drains=float(provisioner.drains_requested),
            degraded_cycles=float(operator.degraded_cycles),
            scale_downs_frozen=float(operator.scale_downs_frozen),
            informer_resyncs=float(
                getattr(getattr(tracker, "informer", None), "resyncs", 0)
            ),
            creations_deferred=float(provisioner.creations_deferred),
        )
        if spot_policy is not None:
            extras["spot_pods_created"] = float(provisioner.spot_pods_created)
        if responder is not None:
            extras["workers_evacuated"] = float(responder.workers_evacuated)
            extras["evac_runs_requeued"] = float(responder.runs_requeued)
            extras["spot_survival_rate"] = responder.tracker.survival_rate()
        if migration is not None:
            extras["migrations_requested"] = float(responder.migrations_requested)
            extras["migrations_started"] = float(migration.migrations_started)
            extras["migrations_completed"] = float(migration.migrations_completed)
            extras["migrations_accepted"] = float(stack.master.migrations_accepted)
            extras["migrations_stale"] = float(stack.master.migrations_stale)
            extras["migration_fallbacks"] = float(migration.migration_fallbacks)
        return extras

    return _PolicyHarness(
        name="HTA",
        submitter=operator,
        on_manager=lambda manager: manager.done_signal.add_waiter(
            lambda _mgr: operator.notify_no_more_jobs()
        ),
        shortage_extra=operator.held_cores,
        gauges={
            "hta_pending_pods": lambda: float(provisioner.pending_count()),
        },
        start=operator.start,
        extras=hta_extras,
    )


register_policy(PolicyDefinition(key="hta", build=_build_hta))


# ------------------------------------------------------------------ sharded
def _validate_sharded(options: Dict) -> None:
    shards = options.get("shards", 4)
    if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
        raise ValueError("shards must be a positive integer")
    crash_at = options.get("shard_crash_at_s")
    if crash_at is not None:
        if not isinstance(crash_at, (int, float)) or crash_at < 0:
            raise ValueError("shard_crash_at_s must be a non-negative number")
        if shards < 2:
            raise ValueError("shard_crash_at_s needs shards >= 2")
    index = options.get("shard_crash_index", 0)
    if isinstance(index, bool) or not isinstance(index, int) or index < 0:
        raise ValueError("shard_crash_index must be a non-negative integer")
    if isinstance(shards, int) and index >= shards:
        raise ValueError("shard_crash_index out of range")


def _build_sharded(
    stack: _Stack, cfg: StackConfig, graph: WorkflowGraph, options: Dict
) -> _PolicyHarness:
    """HTA over the sharded data plane: N dispatch masters behind a
    Foreman, partitioned by seeded hash, with HTA consuming the
    foreman's aggregate view exactly as it would one master."""
    n_shards = int(_take(options, "shards", 4))
    failover = bool(_take(options, "failover", False))
    failover_grace_s = _take(options, "failover_grace_s")
    shard_crash_at_s = _take(options, "shard_crash_at_s")
    shard_crash_index = int(_take(options, "shard_crash_index", 0))
    shard_crash_restart_s = _take(options, "shard_crash_restart_s")
    metrics = stack.metrics if stack.telemetry.enabled else None
    shards = [stack.master]
    for i in range(1, n_shards):
        # Every shard is stamped from the same DispatchConfig and feeds
        # the same (global) monitor, so category statistics and
        # allocation estimates see the full sample stream regardless of
        # which shard completed a task.
        shard = Master(
            stack.engine,
            stack.link,
            config=stack.dispatch_config,
            estimator=stack._make_estimator("monitor"),
            monitor=stack.monitor,
            name=f"{stack.master.name}-{i}",
            tracer=stack.tracer,
            metrics=metrics,
        )
        shards.append(shard)
    foreman = Foreman(stack.engine, shards, seed=cfg.seed)
    # A faults.max_retries override landed on shard 0 post-construction;
    # replicate it everywhere through the foreman's broadcast setter.
    foreman.max_retries = shards[0].max_retries
    # From here on the whole runner flow — HTA, the accountant, result
    # collection, stack teardown — sees the foreman as *the* master.
    stack.master = foreman
    stack.runtime.master_selector = foreman.master_for_pod
    coordinator = None
    if failover:
        coordinator = stack.failover = FailoverCoordinator(
            stack.engine,
            foreman,
            FailoverConfig()
            if failover_grace_s is None
            else FailoverConfig(grace_s=float(failover_grace_s)),
            tracer=stack.tracer,
            metrics=metrics,
        )
    if shard_crash_at_s is not None:
        restart = (
            None if shard_crash_restart_s is None else float(shard_crash_restart_s)
        )

        def _strike() -> None:
            if stack.chaos is not None:
                stack.chaos.crash_shard(
                    foreman, shard_crash_index, restart_delay_s=restart
                )
            else:
                foreman.crash_shard(shard_crash_index, restart_delay_s=restart)

        stack.engine.call_at(float(shard_crash_at_s), _strike)
    harness = _build_hta(stack, cfg, graph, options)
    harness.name = f"HTA-sharded{n_shards}"
    if coordinator is not None:
        base_extras = harness.extras

        def sharded_extras(acc) -> Dict[str, float]:
            extras = base_extras(acc) if base_extras is not None else {}
            extras["shard_failovers"] = float(coordinator.failovers)
            extras["tasks_rehomed"] = float(coordinator.tasks_rehomed)
            extras["workers_reattached"] = float(coordinator.workers_reattached)
            return extras

        harness.extras = sharded_extras
    return harness


register_policy(
    PolicyDefinition(
        key="sharded", build=_build_sharded, validate=_validate_sharded
    )
)


# --------------------------------------------------------------- predictive
def _build_predictive(
    stack: _Stack, cfg: StackConfig, graph: WorkflowGraph, options: Dict
) -> _PolicyHarness:
    from repro.forecast.scaler import PredictiveScaler, PredictiveScalerConfig

    scaler_config = _take(options, "scaler_config")
    fixed_init_time_s = _take(options, "fixed_init_time_s")
    #: Optional OnlineModelSelector shaping the forecaster pool (e.g. an
    #: AR order spanning a recurring arrival period).
    selector = _take(options, "selector")
    if scaler_config is None:
        scaler_config = PredictiveScalerConfig(
            min_workers=cfg.cluster.min_nodes,
            max_workers=cfg.cluster.max_nodes,
        )
    provisioner = WorkerProvisioner(
        stack.engine,
        stack.cluster.api,
        stack.runtime,
        image=cfg.image,
        worker_request=stack.worker_request,
        name_prefix="pred-worker",
        fault_config=_provisioner_faults(cfg),
    )
    tracker = _hta_tracker(stack, cfg, fixed_init_time_s)
    scaler = PredictiveScaler(
        stack.engine,
        stack.master,
        provisioner,
        tracker,
        scaler_config,
        selector=selector,
    )

    def finish() -> None:
        scaler.stop()
        provisioner.stop()

    return _PolicyHarness(
        name="Predictive",
        submitter=stack.master,
        gauges={
            "forecast_pool": lambda: float(scaler.pool_size()),
            "forecast_desired": lambda: float(scaler.last_desired),
        },
        finish=finish,
        extras=lambda _acc: dict(
            scale_events=float(scaler.scale_events),
            decisions=float(scaler.decisions),
            pods_created=float(provisioner.pods_created),
            drains=float(provisioner.drains_requested),
        ),
    )


register_policy(PolicyDefinition(key="predictive", build=_build_predictive))


# --------------------------------------------------------------------- HPA
def _worker_pod_spec(cfg: StackConfig, request: ResourceVector):
    def pod_spec(pod_name: str) -> PodSpec:
        return PodSpec(cfg.image, request, labels={"app": "wq-worker"})

    return pod_spec


def _build_hpa(
    stack: _Stack, cfg: StackConfig, graph: WorkflowGraph, options: Dict
) -> _PolicyHarness:
    target_cpu = float(_take(options, "target_cpu", 0.5))
    hpa_config = _take(options, "hpa_config")
    min_replicas = _take(options, "min_replicas")
    max_replicas = _take(options, "max_replicas")
    request = stack.worker_request
    replicaset = WorkerReplicaSet(
        stack.engine, stack.cluster.api, "wq-workers", _worker_pod_spec(cfg, request)
    )
    if hpa_config is None:
        per_node = max(1, request.copies_fitting_in(cfg.cluster.machine_type.allocatable))
        hpa_config = HpaConfig(
            target_cpu_utilization=target_cpu,
            min_replicas=(
                min_replicas if min_replicas is not None else cfg.cluster.min_nodes
            ),
            max_replicas=(
                max_replicas
                if max_replicas is not None
                else cfg.cluster.max_nodes * per_node
            ),
        )
    hpa = HorizontalPodAutoscaler(
        stack.engine, stack.cluster.metrics, replicaset, hpa_config
    )

    def ideal_workers() -> float:
        """Workers needed to run every remaining task at once (fig 2)."""
        backlog = stack.master.cores_waiting() + stack.master.cores_in_use()
        per_worker = max(request.cores, 1e-9)
        return float(min(hpa_config.max_replicas, math.ceil(backlog / per_worker)))

    return _PolicyHarness(
        name=f"HPA-{int(target_cpu * 100)}%",
        submitter=stack.master,
        gauges={
            "hpa_desired": lambda: float(hpa.last_desired or 0),
            "ideal_workers": ideal_workers,
        },
        finish=hpa.stop,
        extras=lambda _acc: dict(
            scale_events=float(hpa.scale_events),
            pods_deleted=float(replicaset.pods_deleted),
        ),
    )


register_policy(PolicyDefinition(key="hpa", build=_build_hpa))


# --------------------------------------------------------------- queue scaler
def _build_queue(
    stack: _Stack, cfg: StackConfig, graph: WorkflowGraph, options: Dict
) -> _PolicyHarness:
    from repro.baselines.queue_scaler import QueueLengthAutoscaler, QueueScalerConfig

    scaler_config = _take(options, "scaler_config")
    tasks_per_replica = float(_take(options, "tasks_per_replica", 3.0))
    min_replicas = _take(options, "min_replicas")
    max_replicas = _take(options, "max_replicas")
    request = stack.worker_request
    replicaset = WorkerReplicaSet(
        stack.engine, stack.cluster.api, "wq-workers", _worker_pod_spec(cfg, request)
    )
    if scaler_config is None:
        scaler_config = QueueScalerConfig(
            tasks_per_replica=tasks_per_replica,
            min_replicas=(
                min_replicas if min_replicas is not None else cfg.cluster.min_nodes
            ),
            max_replicas=(
                max_replicas if max_replicas is not None else cfg.cluster.max_nodes
            ),
        )
    scaler = QueueLengthAutoscaler(
        stack.engine, stack.master, replicaset, scaler_config
    )
    return _PolicyHarness(
        name="KEDA-queue",
        submitter=stack.master,
        gauges={"keda_replicas": lambda: float(replicaset.current_count())},
        finish=scaler.stop,
        extras=lambda _acc: dict(
            scale_events=float(scaler.scale_events),
            pods_deleted=float(replicaset.pods_deleted),
        ),
    )


register_policy(PolicyDefinition(key="queue", build=_build_queue))


# ------------------------------------------------------------------- static
def _validate_static(options: Dict) -> None:
    n_workers = options.get("n_workers")
    if not isinstance(n_workers, int) or n_workers <= 0:
        raise ValueError("n_workers must be positive")


def _build_static(
    stack: _Stack, cfg: StackConfig, graph: WorkflowGraph, options: Dict
) -> _PolicyHarness:
    n_workers = int(_take(options, "n_workers"))
    options.pop("estimator", None)  # consumed pre-stack via estimator_kind
    request = stack.worker_request
    replicaset = WorkerReplicaSet(
        stack.engine,
        stack.cluster.api,
        "wq-workers",
        _worker_pod_spec(cfg, request),
        replicas=n_workers,
    )

    def extras(accountant: ResourceAccountant) -> Dict[str, float]:
        t0, t1 = accountant.window()
        return dict(
            mean_bandwidth_mbps=stack.link.mean_active_throughput(t0, t1),
            bytes_moved_mb=stack.link.bytes_moved_mb,
        )

    # The replicaset holds the pool for the whole run (it stays alive
    # through its API-server watch registration); nothing to stop.
    return _PolicyHarness(
        name=f"static-{n_workers}",
        submitter=stack.master,
        extras=extras,
    )


register_policy(
    PolicyDefinition(
        key="static",
        build=_build_static,
        estimator_kind=lambda options: str(options.get("estimator") or "monitor"),
        validate=_validate_static,
    )
)

