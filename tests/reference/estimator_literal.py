"""Algorithm 1 over a list wait queue, kept as a test oracle.

:class:`LiteralEstimator` holds ``ResourceEstimator.estimate``,
``_dispatch`` and ``_workers_required`` exactly as they were before the
wait queue was collapsed into runs of equal resources: one
``SimulatedTask`` per waiting task, a walk over the whole queue (and a
copy of what is left) at every simulated step, and a first-fit-decreasing
sort over every still-waiting task. The method bodies are verbatim; the
rest (``_num_idle_workers``, the constructor) is inherited.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.resources import ResourceVector
from repro.hta.estimator import (
    ForecastArrival,
    PendingWorker,
    ResourceEstimator,
    ScalePlan,
    SimulatedTask,
)


class LiteralEstimator(ResourceEstimator):
    """The list-walking Algorithm 1; same constructor as the fast one."""

    # ------------------------------------------------- verbatim from here
    def estimate(
        self,
        rsrc_init_time: float,
        running: Sequence[SimulatedTask],
        waiting: Sequence[SimulatedTask],
        active_workers: int,
        idle_workers: int,
        pending: Sequence[PendingWorker] = (),
        max_workers: Optional[int] = None,
        min_workers: int = 0,
        future_arrivals: Sequence[ForecastArrival] = (),
        spot_workers: int = 0,
        spot_survival: float = 1.0,
    ) -> ScalePlan:
        """Run Algorithm 1 and produce a :class:`ScalePlan`.

        ``active_workers``/``idle_workers`` describe the current pool;
        ``max_workers`` caps scale-up (the user's resource quota, §IV-B);
        ``min_workers`` floors scale-down (the paper keeps a 3-node base
        pool so the cluster survives master upgrades, §V-A);
        ``future_arrivals`` are forecast task submissions that join the
        simulated wait queue mid-cycle (arrivals past the cycle end are
        ignored — they belong to the next decision);
        ``spot_workers`` of the active pool run on preemptible capacity
        expected to survive the cycle with probability ``spot_survival``
        — the supply term counts each as only ``spot_survival`` of a
        worker, so a reclamation-prone pool drives extra scale-up
        instead of being trusted at face value.
        """
        if rsrc_init_time <= 0:
            raise ValueError("rsrc_init_time must be positive")
        if not 0 <= spot_workers <= active_workers:
            raise ValueError("spot_workers must be within [0, active_workers]")
        if not 0.0 <= spot_survival <= 1.0:
            raise ValueError("spot_survival must be within [0, 1]")
        cfg = self.config

        # --- lines 1-2: capacity and currently-available resources,
        # spot workers discounted by their expected survival
        effective = active_workers - spot_workers * (1.0 - spot_survival)
        ava = self.worker_capacity.scale(max(0.0, effective))
        for task in running:
            ava = (ava - task.resources).clamp_floor(0.0)

        # Completion schedule for running tasks, bucketed to steps.
        completions: Dict[int, List[ResourceVector]] = {}
        for task in running:
            step = max(1, math.ceil(task.remaining_s / cfg.step_s))
            completions.setdefault(step, []).append(task.resources)
        arrivals: Dict[int, List[ResourceVector]] = {}
        for pw in pending:
            step = max(1, math.ceil(max(pw.eta_s, 0.0) / cfg.step_s))
            arrivals.setdefault(step, []).append(pw.capacity)

        wait_queue: List[SimulatedTask] = list(waiting)
        steps = max(1, math.ceil(rsrc_init_time / cfg.step_s))

        # Forecast submissions joining the wait queue mid-cycle
        # (extension: the hybrid mode's predicted inflow).
        task_arrivals: Dict[int, List[SimulatedTask]] = {}
        for fa in future_arrivals:
            step = max(1, math.ceil(fa.eta_s / cfg.step_s))
            if step <= steps:
                task_arrivals.setdefault(step, []).append(fa.task)

        # --- lines 3-18: forward simulation over one init cycle
        for t in range(1, steps + 1):
            for freed in completions.get(t, ()):  # lines 4-7
                ava = ava + freed
            for extra in arrivals.get(t, ()):  # extension: in-flight pods
                ava = ava + extra
            wait_queue.extend(task_arrivals.get(t, ()))  # predicted inflow
            wait_queue, ava = self._dispatch(wait_queue, ava)

        def removable() -> int:
            limit = max(0, active_workers - min_workers)
            return min(self._num_idle_workers(ava, idle_workers), limit)

        # --- lines 19-21: resources are enough. The pseudocode holds
        # steady here; the paper's controller ("scale down if RSH < 0")
        # additionally releases whole idle workers — see EstimatorConfig.
        if not wait_queue:
            if cfg.scale_down_on_empty_queue:
                idle_removable = removable()
                if idle_removable > 0:
                    max_run = max(
                        (t.remaining_s for t in running), default=cfg.default_cycle_s
                    )
                    next_action = max(cfg.min_cycle_s, min(max_run, cfg.default_cycle_s))
                    return ScalePlan(-idle_removable, next_action, 0, ava.cores)
            return ScalePlan(0, cfg.default_cycle_s, 0, ava.cores)

        # --- lines 22-24: spare whole workers at cycle end → scale down
        idle_removable = removable()
        if idle_removable > 0:
            max_run = max((t.remaining_s for t in running), default=cfg.default_cycle_s)
            next_action = max(cfg.min_cycle_s, max_run)
            return ScalePlan(-idle_removable, next_action, len(wait_queue), ava.cores)

        # --- line 25: scale up by the workers the waiting tasks need
        needed = self._workers_required(wait_queue)
        if max_workers is not None:
            in_flight = len(pending)
            headroom = max(0, max_workers - active_workers - in_flight)
            needed = min(needed, headroom)
        next_action = max(cfg.min_cycle_s, rsrc_init_time)
        return ScalePlan(needed, next_action, len(wait_queue), ava.cores)

    @staticmethod
    def _dispatch(
        waiting: List[SimulatedTask], ava: ResourceVector
    ) -> Tuple[List[SimulatedTask], ResourceVector]:
        """Lines 8-17: first-fit dispatch of waiting tasks into ``ava``.

        Pure function of its inputs: returns the still-waiting tasks and
        the capacity left after dispatch. Dispatched tasks are assumed to
        hold their resources past the cycle end (conservative: their
        remaining runtime usually exceeds the remaining cycle; the paper's
        pseudocode makes the same simplification by never re-completing
        newly dispatched tasks inside the loop).
        """
        remaining: List[SimulatedTask] = []
        for i, task in enumerate(waiting):
            if ava.is_zero():  # lines 9-11
                remaining.extend(waiting[i:])
                break
            if task.resources.fits_in(ava):  # lines 12-16
                ava = (ava - task.resources).clamp_floor(0.0)
            else:
                remaining.append(task)
        return remaining, ava

    def _workers_required(self, waiting: Sequence[SimulatedTask]) -> int:
        """First-fit-decreasing packing of waiting tasks into workers.

        Implementation notes, because this is the hottest loop of the HTA
        controller at large queue depths: bins are kept as component
        floats (the naive ResourceVector version allocated two vectors
        per probe), and the scan start is carried over between tasks with
        identical resources. Both preserve the packing bit-for-bit: the
        comparisons and accumulations below perform exactly the float
        operations ``fits_in(capacity - used)`` / ``used + res`` did, and
        after a task lands in bin *i*, bins before *i* are unchanged, so
        they would reject an identical next task again — the first-fit
        scan for it may legally resume at *i*.
        """
        cap = self.worker_capacity
        cap_c, cap_m, cap_d = cap.cores, cap.memory_mb, cap.disk_mb
        eps = 1e-9  # fits_in's float-drift epsilon
        bins_c: List[float] = []
        bins_m: List[float] = []
        bins_d: List[float] = []
        prev_res: Optional[ResourceVector] = None
        start = 0
        for task in sorted(waiting, key=lambda t: t.resources.cores, reverse=True):
            res = task.resources
            if res != prev_res:
                prev_res = res
                start = 0
            if not res.fits_in(cap):
                # Will never fit a worker; clamp to one dedicated worker.
                bins_c.append(cap_c)
                bins_m.append(cap_m)
                bins_d.append(cap_d)
                continue
            res_c, res_m, res_d = res.cores, res.memory_mb, res.disk_mb
            for i in range(start, len(bins_c)):
                if (
                    res_c <= (cap_c - bins_c[i]) + eps
                    and res_m <= (cap_m - bins_m[i]) + eps
                    and res_d <= (cap_d - bins_d[i]) + eps
                ):
                    bins_c[i] = bins_c[i] + res_c
                    bins_m[i] = bins_m[i] + res_m
                    bins_d[i] = bins_d[i] + res_d
                    start = i
                    break
            else:
                bins_c.append(res_c)
                bins_m.append(res_m)
                bins_d.append(res_d)
                start = len(bins_c) - 1
            # ``start`` is where this task landed; an identical next task
            # cannot land earlier, so its scan resumes there.
        return len(bins_c)
