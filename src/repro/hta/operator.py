"""The Makeflow-Kubernetes operator: HTA's control loop (fig 8).

The operator sits between the workflow manager and the Work Queue master
(it satisfies :class:`repro.makeflow.manager.Submitter`), and drives the
three autoscaling stages of §V-C:

1. **Warm-up** — the initial worker pool is created and job fan-out is
   gated: the first job of each *unknown* category goes out alone as a
   probe; its siblings are held until the probe completes and the
   resource monitor has a category estimate. Jobs with declared
   resources pass straight through.
2. **Runtime** — a periodic resizing loop: gather the latest resource
   initialization time (informer), queue status (master), and category
   statistics (monitor); run Algorithm 1; create or drain worker pods.
   The interval to the next action is the plan's — by default one
   resource-initialization cycle, exactly the paper's anti-thrashing
   rule ("time intervals between two resizing actions is always set as
   the latest resource initialization time").
3. **Clean-up** — on the workflow's no-more-jobs notification, once the
   queue drains: drain all workers, delete leftover pods, stop loops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.resources import ResourceVector
from repro.forecast.models import default_forecasters
from repro.forecast.selector import OnlineModelSelector
from repro.hta.estimator import (
    EstimatorConfig,
    ForecastArrival,
    PendingWorker,
    ResourceEstimator,
    ScalePlan,
    SimulatedTask,
)
from repro.hta.inittime import InitTimeTracker
from repro.hta.preemption import PreemptionResponder
from repro.hta.provisioner import WorkerProvisioner
from repro.sim.engine import Engine, PeriodicTask
from repro.sim.process import Signal
from repro.telemetry.events import NULL_TRACER, Tracer
from repro.wq.master import Master
from repro.wq.task import Task, TaskResult, TaskState
from repro.wq.worker import WorkerState

_new = tuple.__new__
_RUNNING = TaskState.RUNNING
_READY = WorkerState.READY


@dataclass(frozen=True, slots=True)
class HtaConfig:
    """Operator tunables."""

    #: Worker pods created at start ("the cluster has 3 nodes" §V-A).
    initial_workers: int = 3
    #: Resource quota, in workers (= nodes, one worker-pod per node).
    max_workers: int = 20
    #: Worker pool floor during the run (the 3-node base pool, §V-A);
    #: the clean-up stage still drains everything at the end.
    min_workers: int = 3
    #: Delay before the first resizing decision.
    first_cycle_s: float = 5.0
    #: Hybrid mode: inject forecast task arrivals as synthetic waiting
    #: tasks into Algorithm 1's simulation, so the plan provisions for
    #: predicted inflow as well as the visible queue. The arrival rate is
    #: sampled from the operator's own submission stream and forecast by
    #: an online-selected model pool (see :mod:`repro.forecast`).
    forecast_arrivals: bool = False
    #: Arrival-rate sampling cadence for the hybrid mode.
    forecast_sample_interval_s: float = 15.0
    #: Cap on synthetic tasks injected per plan (keeps Algorithm 1's
    #: forward simulation bounded when a model overshoots).
    forecast_max_tasks: int = 64
    #: Rolling error window for the hybrid mode's model pool.
    forecast_error_window: int = 32
    #: Control-plane self-defense: when the API server is down, the
    #: master is unreachable, or the informer cache is stale beyond
    #: ``staleness_bound``, the resize cycle stops trusting its inputs —
    #: scale-down freezes, the last-known-good init-time estimate is
    #: held, and sizing falls back to conservative queue length.
    degraded_mode: bool = True
    #: Informer staleness (store writes not yet seen) above which the
    #: feedback signal is considered broken. Healthy operation is
    #: transiently nonzero (watch delivery is asynchronous), so the
    #: bound must absorb a normal burst of in-flight events.
    staleness_bound: int = 16
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)


class HtaOperator:
    """The HTA middleware. See module docstring."""

    def __init__(
        self,
        engine: Engine,
        master: Master,
        provisioner: WorkerProvisioner,
        init_tracker: InitTimeTracker,
        config: HtaConfig = HtaConfig(),
        *,
        tracer: Optional[Tracer] = None,
        preemption: Optional[PreemptionResponder] = None,
    ) -> None:
        self.engine = engine
        self.master = master
        self.provisioner = provisioner
        self.init_tracker = init_tracker
        self.config = config
        #: Set when the stack runs a spot pool with a responder: the
        #: resize cycle then discounts spot workers by the observed
        #: survival rate (Algorithm 1's supply term, preemption-aware).
        self.preemption = preemption
        #: Decision-audit stream: one ``hta/decision`` event per resize
        #: cycle when tracing is armed (see telemetry.explain).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.estimator = ResourceEstimator(provisioner.worker_request, config.estimator)
        self._held: Dict[str, List[Task]] = {}
        self._probes_in_flight: Dict[str, int] = {}
        self._callbacks: List[Callable[[Task, TaskResult], None]] = []
        self._no_more_jobs = False
        self._cleaned_up = False
        self.started = False
        self.plans: List[ScalePlan] = []
        self.done_signal = Signal(engine, "hta.done")
        self._loop: Optional[PeriodicTask] = None
        #: Degraded-mode telemetry (see :attr:`HtaConfig.degraded_mode`).
        self.degraded_cycles = 0
        self.scale_downs_frozen = 0
        self._last_good_init: Optional[float] = None
        #: Hybrid-mode state (inert unless ``config.forecast_arrivals``).
        self.arrival_selector: Optional[OnlineModelSelector] = None
        self._arrivals_seen = 0
        self._arrivals_at_last_sample = 0
        self._recent_arrivals: Deque[Task] = deque(maxlen=32)
        self._arrival_sampler: Optional[PeriodicTask] = None
        if config.forecast_arrivals:
            self.arrival_selector = OnlineModelSelector(
                default_forecasters(error_window=config.forecast_error_window)
            )
        master.on_complete(self._master_completed)

    # ----------------------------------------------------------- Submitter
    def submit(self, task: Task) -> None:
        """Accept a ready job from the workflow manager (TCP server role)."""
        self._arrivals_seen += 1
        if self.config.forecast_arrivals:
            self._recent_arrivals.append(task)
        if self._should_hold(task):
            self._held.setdefault(task.category, []).append(task)
            return
        self._forward(task)

    def on_complete(self, fn: Callable[[Task, TaskResult], None]) -> None:
        self._callbacks.append(fn)

    def on_abandoned(self, fn: Callable[[Task], None]) -> None:
        """Pass-through: abandoned-task notifications come from the
        master (tasks held by HTA are never lost, only queued ones)."""
        self.master.on_abandoned(fn)

    def _should_hold(self, task: Task) -> bool:
        if task.declared is not None:
            return False
        if self.master.monitor.has_estimate(task.category):
            return False
        # Unknown category: the first job becomes the probe, the rest wait.
        return self._probes_in_flight.get(task.category, 0) > 0

    def _forward(self, task: Task) -> None:
        if task.declared is None and not self.master.monitor.has_estimate(
            task.category
        ):
            self._probes_in_flight[task.category] = (
                self._probes_in_flight.get(task.category, 0) + 1
            )
        self.master.submit(task)

    def _master_completed(self, task: Task, result: TaskResult) -> None:
        # Probe done → its category now has an estimate; flush held tasks.
        if self._probes_in_flight.pop(task.category, None) is not None:
            for held in self._held.pop(task.category, []):
                self.master.submit(held)
        for fn in list(self._callbacks):
            fn(task, result)
        self._maybe_clean_up()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Warm-up stage: bootstrap the worker pool and the resize loop."""
        if self.started:
            return
        self.started = True
        self.provisioner.create_workers(self.config.initial_workers)
        self._loop = PeriodicTask(
            self.engine,
            self.config.estimator.default_cycle_s,
            self._cycle,
            start_after=self.config.first_cycle_s,
            use_return_delay=True,
        )
        if self.config.forecast_arrivals:
            self._arrival_sampler = PeriodicTask(
                self.engine,
                self.config.forecast_sample_interval_s,
                self._sample_arrival_rate,
                start_after=self.config.forecast_sample_interval_s,
            )

    def _sample_arrival_rate(self) -> None:
        """Feed the hybrid mode's models one arrival-rate observation."""
        assert self.arrival_selector is not None
        delta = self._arrivals_seen - self._arrivals_at_last_sample
        self._arrivals_at_last_sample = self._arrivals_seen
        rate = delta / self.config.forecast_sample_interval_s
        self.arrival_selector.observe(self.engine.now, rate)

    def notify_no_more_jobs(self) -> None:
        """The workflow manager has no further jobs (clean-up trigger)."""
        self._no_more_jobs = True
        self._maybe_clean_up()

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.stop()
            self._loop = None
        if self._arrival_sampler is not None:
            self._arrival_sampler.stop()
            self._arrival_sampler = None
        if self.preemption is not None:
            self.preemption.close()
        close = getattr(self.init_tracker, "close", None)
        if close is not None:
            # Unsubscribe the tracker's informer (and stop its resync
            # timer) so back-to-back experiments on one API server don't
            # leak watch handlers. FixedInitTime has nothing to close.
            close()

    @property
    def held_count(self) -> int:
        return sum(len(v) for v in self._held.values())

    def held_cores(self) -> float:
        """Footprint cores of warm-up-held tasks; part of the true
        resource shortage (held jobs are ready, just gated by HTA)."""
        return sum(t.footprint.cores for v in self._held.values() for t in v)

    def _maybe_clean_up(self) -> None:
        if (
            not self._no_more_jobs
            or self._cleaned_up
            or self.held_count
            or not self.master.all_done
        ):
            return
        self._cleaned_up = True
        self.stop()
        self.provisioner.stop()
        self.provisioner.drain_all()
        self.provisioner.cancel_pending(10**9)
        self.done_signal.fire_once(self)

    # --------------------------------------------------------- resize cycle
    def _cycle(self) -> float:
        """One runtime-stage pass; returns the delay to the next one."""
        if self._cleaned_up:
            return False  # stop the loop
        if self.config.degraded_mode and self._degraded():
            return self._degraded_cycle()
        if self.master.tasks_submitted == 0 and not self._no_more_jobs:
            # Still in warm-up: the initial pool stands until the first
            # jobs arrive; resizing starts with the runtime stage (§V-C).
            if self.tracer.enabled:
                self._emit_decision(
                    "warmup", 0, self._decision_inputs(self.master.live_worker_counts())
                )
            return self.config.estimator.default_cycle_s
        self._last_good_init = self.init_tracker.current()
        # The inputs plan_once reads (planning changes nothing), taken
        # before _apply: the audit record shows what the plan saw, not
        # the pods it creates or the pool its drains leave.
        inputs = (
            self._decision_inputs(self.master.live_worker_counts())
            if self.tracer.enabled
            else None
        )
        plan = self.plan_once()
        self.plans.append(plan)
        created, cancelled, drained = self._apply(plan)
        if self.tracer.enabled:
            self._emit_decision(
                "normal",
                plan.delta,
                inputs,
                created=created,
                cancelled=cancelled,
                drained=drained,
                next_action_s=plan.next_action_s,
                waiting_after=plan.waiting_after,
            )
        return max(self.config.estimator.min_cycle_s, plan.next_action_s)

    def _degraded(self) -> bool:
        """True when the control loop's feedback inputs cannot be
        trusted: API server down, master unreachable, or informer cache
        stale beyond the bound."""
        api = getattr(self.provisioner, "api", None)
        if api is not None and not getattr(api, "available", True):
            return True
        if not self.master.available:
            return True
        informer = getattr(self.init_tracker, "informer", None)
        if informer is not None and informer.staleness() > self.config.staleness_bound:
            return True
        return False

    def _degraded_cycle(self) -> float:
        """Fail-safe resize pass: never scale down on stale data; size
        the pool by raw queue length (one worker per backlogged task,
        the conservative pre-Algorithm-1 rule) so live demand is always
        covered; hold the last-known-good init time as the interval."""
        self.degraded_cycles += 1
        fleet = self.master.live_worker_counts()
        live = fleet[0]
        backlog = 0
        if self.master.available:
            stats = self.master.stats()
            backlog = stats.waiting + stats.running + self.held_count
        target = max(
            live,
            min(self.config.max_workers, max(self.config.min_workers, backlog)),
        )
        pending = self.provisioner.pending_count()
        delta = target - (live + pending)
        inputs = self._decision_inputs(fleet) if self.tracer.enabled else None
        created_pods = 0
        if delta > 0:
            created_pods = len(self.provisioner.create_workers(delta))
        elif delta < 0:
            # Would shrink the pool — frozen until the signal recovers.
            self.scale_downs_frozen += 1
        if self.tracer.enabled:
            api = getattr(self.provisioner, "api", None)
            informer = getattr(self.init_tracker, "informer", None)
            staleness = informer.staleness() if informer is not None else 0
            self._emit_decision(
                "degraded",
                delta,
                inputs,
                created=created_pods,
                scale_down_frozen=delta < 0,
                api_available=bool(getattr(api, "available", True)),
                master_available=self.master.available,
                staleness_exceeded=staleness > self.config.staleness_bound,
            )
        hold = (
            self._last_good_init
            if self._last_good_init is not None
            else self.config.estimator.default_cycle_s
        )
        return max(self.config.estimator.min_cycle_s, hold)

    def plan_once(self) -> ScalePlan:
        """Gather inputs and run Algorithm 1 (no side effects): one flat
        pass per queue over the cycle's :meth:`_estimate_memo`."""
        init_time = self.init_tracker.current()
        now = self.engine.now
        estimate = self._estimate_memo()
        running: List[SimulatedTask] = []
        for task in self.master.running_tasks():
            res, predicted = estimate(task)
            allocation = task.allocation or res
            if task.state is _RUNNING and task.start_time is not None:
                left = predicted - (now - task.start_time)
                # max(1.0, left): remaining_s >= 0 needs no check.
                left = left if left > 1.0 else 1.0
                running.append(_new(SimulatedTask, (allocation, left)))
            else:
                running.append(SimulatedTask(allocation, predicted))  # fetching inputs
        waiting = [estimate(t) for t in self.master.waiting_tasks()]
        # Warm-up-held tasks stay out: the paper provisions for jobs it
        # has *submitted*, and a held job's size is unknown by definition.

        # Quarantined workers are dead supply: the dispatcher refuses
        # them, so counting them would understate the workers Algorithm 1
        # still needs to provision.
        live, idle = self.master.live_worker_counts()
        pending: List[PendingWorker] = []
        for pod in self.provisioner.pending_pods():
            age = self.engine.now - pod.meta.creation_time
            eta = max(1.0, init_time - age)
            pending.append(PendingWorker(pod.spec.request, eta))
        spot_workers = 0
        spot_survival = 1.0
        if self.preemption is not None:
            spot_workers = sum(
                1
                for w in self.master.connected_workers()
                if w.state is _READY and not w.quarantined and self._on_spot_node(w)
            )
            spot_survival = self.preemption.tracker.survival_rate()
        return self.estimator.estimate(
            rsrc_init_time=init_time,
            running=running,
            waiting=waiting,
            active_workers=live,
            idle_workers=idle,
            pending=pending,
            max_workers=self.config.max_workers,
            min_workers=self.config.min_workers,
            future_arrivals=self._forecast_arrivals(init_time, estimate),
            spot_workers=spot_workers,
            spot_survival=spot_survival,
        )

    @staticmethod
    def _on_spot_node(worker) -> bool:
        pod = worker.pod
        return pod is not None and pod.node is not None and pod.node.preemptible

    def _forecast_arrivals(
        self, init_time: float, estimate: Callable[[Task], SimulatedTask]
    ) -> List[ForecastArrival]:
        """Hybrid mode: predicted submissions over the coming cycle.

        Expected count is the trapezoid of the forecast rate at now and
        at the cycle end; synthetic tasks are spread evenly over the
        cycle and shaped like recent real arrivals (cycling through the
        last few, so a mixed stream injects a mixed prediction). After
        the workflow manager declares no more jobs the prediction is
        dropped — inflow is known to be zero and synthetic tasks would
        only stall the clean-up drain.
        """
        if (
            self.arrival_selector is None
            or self._no_more_jobs
            or not self._recent_arrivals
        ):
            return []
        rate_now = self.arrival_selector.predict(0.0)
        rate_end = self.arrival_selector.predict(init_time)
        expected = (rate_now + rate_end) / 2.0 * init_time
        count = min(int(expected), self.config.forecast_max_tasks)
        if count <= 0:
            return []
        prototypes = list(self._recent_arrivals)
        arrivals: List[ForecastArrival] = []
        for i in range(count):
            proto = prototypes[i % len(prototypes)]
            eta = (i + 1) / (count + 1) * init_time
            arrivals.append(ForecastArrival(estimate(proto), eta))
        return arrivals

    def _apply(self, plan: ScalePlan) -> tuple:
        """Execute a plan; returns ``(created, cancelled, drained)`` pod
        counts for the decision audit."""
        if plan.delta > 0:
            created = self.provisioner.create_workers(plan.delta)
            return len(created), 0, 0
        if plan.delta < 0:
            remaining = -plan.delta
            cancelled = self.provisioner.cancel_pending(remaining)
            remaining -= cancelled
            drained = 0
            if remaining > 0:
                drained = len(self.provisioner.drain_workers(remaining))
            return 0, cancelled, drained
        return 0, 0, 0

    def _decision_inputs(self, fleet: Tuple[int, int]) -> Dict[str, object]:
        """The inputs a cycle sizes with, as its ``hta/decision`` record
        shows them (``fleet`` is the ``(live, idle)`` pair). Read before
        the cycle acts, so a record never counts its own pods."""
        live, idle = fleet
        stats = self.master.stats() if self.master.available else None
        informer = getattr(self.init_tracker, "informer", None)
        init_time = (
            self._last_good_init
            if self._last_good_init is not None
            else self.init_tracker.current()
        )
        return dict(
            waiting=stats.waiting if stats is not None else 0,
            running=stats.running if stats is not None else 0,
            held=self.held_count,
            live_workers=live,
            idle_workers=idle,
            pending_pods=self.provisioner.pending_count(),
            init_time_s=float(init_time),
            staleness=int(informer.staleness()) if informer is not None else 0,
        )

    def _emit_decision(
        self, mode: str, delta: int, inputs: Dict[str, object], **extra
    ) -> None:
        """One ``hta/decision`` audit record: the cycle's
        :meth:`_decision_inputs`, the resulting delta, and what was
        actually done (callers add the action/override attributes)."""
        attrs: Dict[str, object] = dict(mode=mode, delta=int(delta))
        attrs.update(inputs)
        attrs.update(extra)
        self.tracer.emit("hta", "decision", mode, **attrs)

    # ------------------------------------------------------------ modelling
    def _estimate_memo(self) -> Callable[[Task], SimulatedTask]:
        """A task as Algorithm 1 sizes it before it runs: its
        :meth:`_estimate_resources` and its predicted runtime, the
        category's mean, else a declared task's own ``execute_s`` (in a
        real deployment the user's guess), else the fallback.

        Memoized per ``(category, declared)`` for one cycle: besides those
        fields it reads only the monitor and ``worker_request``, which
        nothing changes while a cycle plans. The key's tasks share one
        object unless their ``execute_s`` decides.
        """
        memo: Dict[tuple, Tuple[ResourceVector, Optional[SimulatedTask]]] = {}
        monitor = self.master.monitor
        fallback = self.config.estimator.fallback_runtime_s

        def estimate(task: Task) -> SimulatedTask:
            key = (task.category, task.declared)
            entry = memo.get(key)
            if entry is None:
                res = self._estimate_resources(task)
                mean = monitor.runtime_estimate(task.category)
                known = mean is not None and mean > 0
                entry = memo[key] = (res, SimulatedTask(res, mean) if known else None)
            res, shared = entry
            if shared is not None:
                return shared
            if task.execute_s > 0 and task.declared is not None:
                return _new(SimulatedTask, (res, task.execute_s))
            return SimulatedTask(res, fallback)

        return estimate

    def _estimate_resources(self, task: Task) -> ResourceVector:
        estimate = self.master.monitor.resource_estimate(task.category)
        if task.declared is not None:
            # Resource-exhaustion escalations can exceed the declaration
            # (that is their point); plan with whichever is larger, as
            # long as it still fits a worker.
            if estimate is not None:
                combined = task.declared.max_with(estimate)
                if combined.fits_in(self.provisioner.worker_request):
                    return combined
            return task.declared
        if estimate is not None and estimate.fits_in(self.provisioner.worker_request):
            return estimate
        return self.provisioner.worker_request  # unknown → whole worker
