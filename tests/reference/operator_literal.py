"""HTA's input gathering one object and method call per task, kept as a
test oracle.

:class:`LiteralPlanner` holds ``HtaOperator.plan_once`` and its per-task
helpers (``_resources_memo``, ``_simulated_running``,
``_simulated_waiting``, ``_estimate_runtime`` and the
``_forecast_arrivals`` that called them) exactly as they were before the
running and waiting inputs were built in one flat pass over a per-cycle
memo: a :class:`~repro.hta.estimator.SimulatedTask` built through its
validating constructor for every task, and a monitor lookup for every
task's runtime. The method bodies are verbatim. Everything else
(``_estimate_resources``, ``_on_spot_node``, the estimator, the master,
the configuration) is read through from the live operator the planner
wraps, so both planners can be asked, in the same state, what they would
plan; planning is side-effect free.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.cluster.resources import ResourceVector
from repro.hta.estimator import ForecastArrival, PendingWorker, ScalePlan, SimulatedTask
from repro.hta.operator import HtaOperator
from repro.wq.task import Task, TaskState
from repro.wq.worker import WorkerState


class LiteralPlanner:
    """A live :class:`HtaOperator` planning the per-task way."""

    def __init__(self, operator: HtaOperator) -> None:
        self._operator = operator

    def __getattr__(self, name: str):
        return getattr(self._operator, name)

    # ------------------------------------------------- verbatim from here
    def plan_once(self) -> ScalePlan:
        """Gather inputs and run Algorithm 1 (no side effects)."""
        init_time = self.init_tracker.current()
        resources = self._resources_memo()
        running = [
            self._simulated_running(t, resources) for t in self.master.running_tasks()
        ]
        waiting = [
            self._simulated_waiting(t, resources) for t in self.master.waiting_tasks()
        ]
        # Warm-up-held tasks stay out: the paper provisions for jobs it
        # has *submitted*, and a held job's size is unknown by definition.

        # Quarantined workers are dead supply: the dispatcher refuses
        # them, so counting them would understate the workers Algorithm 1
        # still needs to provision.
        live = [
            w
            for w in self.master.connected_workers()
            if w.state is WorkerState.READY and not w.quarantined
        ]
        idle = sum(1 for w in live if w.idle)
        pending: List[PendingWorker] = []
        for pod in self.provisioner.pending_pods():
            age = self.engine.now - pod.meta.creation_time
            eta = max(1.0, init_time - age)
            pending.append(PendingWorker(pod.spec.request, eta))
        spot_workers = 0
        spot_survival = 1.0
        if self.preemption is not None:
            spot_workers = sum(1 for w in live if self._on_spot_node(w))
            spot_survival = self.preemption.tracker.survival_rate()
        return self.estimator.estimate(
            rsrc_init_time=init_time,
            running=running,
            waiting=waiting,
            active_workers=len(live),
            idle_workers=idle,
            pending=pending,
            max_workers=self.config.max_workers,
            min_workers=self.config.min_workers,
            future_arrivals=self._forecast_arrivals(init_time, resources),
            spot_workers=spot_workers,
            spot_survival=spot_survival,
        )

    def _forecast_arrivals(
        self, init_time: float, resources: Callable[[Task], ResourceVector]
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
            synthetic = self._simulated_waiting(proto, resources)
            eta = (i + 1) / (count + 1) * init_time
            arrivals.append(ForecastArrival(synthetic, eta))
        return arrivals

    def _resources_memo(self) -> Callable[[Task], ResourceVector]:
        """:meth:`_estimate_resources` memoized per ``(category, declared)``.

        Valid for one cycle: besides those two fields the estimate reads
        only the monitor and ``worker_request``, which nothing changes
        while a cycle plans.
        """
        memo: Dict[tuple, ResourceVector] = {}

        def resources(task: Task) -> ResourceVector:
            key = (task.category, task.declared)
            res = memo.get(key)
            if res is None:
                res = memo[key] = self._estimate_resources(task)
            return res

        return resources

    def _simulated_running(
        self, task: Task, resources: Callable[[Task], ResourceVector]
    ) -> SimulatedTask:
        allocation = task.allocation or resources(task)
        predicted = self._estimate_runtime(task)
        if task.state is TaskState.RUNNING and task.start_time is not None:
            elapsed = self.engine.now - task.start_time
            remaining = max(1.0, predicted - elapsed)
        else:
            remaining = predicted  # still fetching inputs
        return SimulatedTask(allocation, remaining)

    def _simulated_waiting(
        self, task: Task, resources: Callable[[Task], ResourceVector]
    ) -> SimulatedTask:
        return SimulatedTask(resources(task), self._estimate_runtime(task))

    def _estimate_runtime(self, task: Task) -> float:
        estimate = self.master.monitor.runtime_estimate(task.category)
        if estimate is not None and estimate > 0:
            return estimate
        if task.execute_s > 0 and task.declared is not None:
            # With declared resources and no history, the best available
            # guess in a real deployment is user-provided; our tasks carry
            # it as execute_s. Use it rather than a blind fallback.
            return task.execute_s
        return self.config.estimator.fallback_runtime_s
