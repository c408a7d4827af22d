"""Algorithm 1 — the Resource Estimation Algorithm.

A faithful port of the paper's pseudocode: simulate the execution of the
workflow forward over one resource-initialization cycle —

1. start from the resources currently available on active workers;
2. for each second ``t`` in ``1..rsrcInitTime``: return the resources of
   tasks predicted to complete at ``t``, then greedily dispatch waiting
   tasks into the freed capacity (first-fit, queue order);
3. afterwards:

   * waiting queue empty → ``(0, DefaultCycle)`` — resources suffice;
   * spare resources left → ``(-NumIdleWorkers, MaxRuntime(running))`` —
     scale down by the number of whole workers that would sit idle;
   * otherwise → ``(+WorkersRequired(waiting), rsrcInitTime)`` — scale up
     by the workers needed to host the still-waiting tasks.

Extensions (documented in DESIGN.md):

* worker pods already requested but not yet ready join the simulated
  capacity at their predicted ready time. The paper sidesteps this case
  by spacing decisions one initialization cycle apart; feeding the
  in-flight pods in keeps the algorithm correct even when a cycle fires
  early (and reduces double-provisioning when the measured
  initialization time jitters). Pass ``pending=()`` for the
  strictly-literal behaviour.
* *forecast arrivals*: tasks predicted to be submitted during the cycle
  join the simulated wait queue at their predicted arrival offset (the
  hybrid HTA mode, ``HtaConfig.forecast_arrivals``). Until they arrive
  they consume nothing; once arrived they compete for freed capacity in
  queue order like any waiting task, and any still unplaced at cycle end
  count toward the scale-up demand. Pass ``future_arrivals=()`` for the
  purely-reactive behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import ceil
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.resources import ResourceVector, first_fit_decreasing

_new = tuple.__new__

#: A run of the simulated wait queue: that many adjacent waiting tasks
#: with equal resources.
Run = Tuple[ResourceVector, int]


class _SimulatedTaskFields(NamedTuple):
    resources: ResourceVector
    remaining_s: float


class SimulatedTask(_SimulatedTaskFields):
    """A task as the estimator sees it: an allocation and a runtime guess.

    For running tasks ``remaining_s`` is the *predicted remaining* time
    (category mean minus elapsed, floored at zero); for waiting tasks it
    is the full predicted runtime.
    """

    __slots__ = ()

    # A NamedTuple body cannot override __new__, hence this subclass.
    def __new__(cls, resources: ResourceVector, remaining_s: float) -> "SimulatedTask":
        if remaining_s < 0:
            raise ValueError(f"remaining_s must be non-negative, got {remaining_s}")
        return tuple.__new__(cls, (resources, remaining_s))


class PendingWorker(NamedTuple):
    """A worker pod requested but not ready; joins capacity at ``eta_s``."""

    capacity: ResourceVector
    eta_s: float


@dataclass(frozen=True, slots=True)
class ForecastArrival:
    """A task predicted to be submitted ``eta_s`` seconds into the cycle."""

    task: SimulatedTask
    eta_s: float

    def __post_init__(self) -> None:
        if self.eta_s < 0:
            raise ValueError(f"eta_s must be non-negative, got {self.eta_s}")


@dataclass(frozen=True, slots=True)
class ScalePlan:
    """The estimator's output: resize by ``delta`` workers, re-evaluate
    after ``next_action_s`` seconds."""

    delta: int
    next_action_s: float
    waiting_after: int = 0
    idle_cores_after: float = 0.0

    @property
    def action(self) -> str:
        if self.delta > 0:
            return "scale-up"
        if self.delta < 0:
            return "scale-down"
        return "hold"


@dataclass(frozen=True, slots=True)
class EstimatorConfig:
    """Tunables around the core algorithm."""

    #: Interval to re-check when the queue is empty and supply matches
    #: demand (the pseudocode's ``DefaultCycle``).
    default_cycle_s: float = 30.0
    #: Time-step for the forward simulation; the pseudocode iterates
    #: second by second.
    step_s: float = 1.0
    #: Runtime assumed for tasks whose category has no estimate yet.
    fallback_runtime_s: float = 60.0
    #: Lower bound on the returned next-action interval, to avoid a
    #: zero-delay resize storm when MaxRuntime(running) is tiny.
    min_cycle_s: float = 5.0
    #: Scale down when the simulated queue empties and whole workers sit
    #: idle. The paper's prose demands this ("scale down if RSH < 0",
    #: §IV-B, and fig 10b's mid-workflow dip) although the pseudocode's
    #: lines 19-21 return "do nothing" for an empty queue; False gives
    #: the literal pseudocode (see the ablation benchmark).
    scale_down_on_empty_queue: bool = True


class ResourceEstimator:
    """Stateless planner; one :meth:`estimate` call per resizing cycle."""

    def __init__(self, worker_capacity: ResourceVector, config: EstimatorConfig = EstimatorConfig()):
        if not worker_capacity.any_positive():
            raise ValueError("worker_capacity must be positive")
        self.worker_capacity = worker_capacity
        self.config = config

    # -------------------------------------------------------------- public
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
        # spot workers discounted by their expected survival. One pass
        # folds the running tasks in as component floats, buckets their
        # completions to steps and keeps MaxRuntime(running).
        effective = active_workers - spot_workers * (1.0 - spot_survival)
        ac, am, ad = self.worker_capacity.scale(max(0.0, effective))
        step_s = cfg.step_s
        max_run = running[0].remaining_s if running else cfg.default_cycle_s
        completions: Dict[int, List[ResourceVector]] = {}
        for res, remaining_s in running:
            rc, rm, rd = res
            # max(x - r, 0.0), bit for bit: it keeps x - r unless 0.0 > x - r.
            ac = 0.0 if ac - rc < 0.0 else ac - rc
            am = 0.0 if am - rm < 0.0 else am - rm
            ad = 0.0 if ad - rd < 0.0 else ad - rd
            step = ceil(remaining_s / step_s)
            step = step if step > 1 else 1
            bucket = completions.get(step)
            if bucket is None:
                completions[step] = [res]
            else:
                bucket.append(res)
            if remaining_s > max_run:
                max_run = remaining_s
        arrivals: Dict[int, List[ResourceVector]] = {}
        for pw in pending:
            step = max(1, ceil(max(pw.eta_s, 0.0) / step_s))
            arrivals.setdefault(step, []).append(pw.capacity)

        # The wait queue as runs of equal resources, in queue order: the
        # waiting tasks' runtimes are never read, so a category is one run.
        wait_queue: List[Run] = [
            (res, len(list(group)))
            for res, group in groupby(waiting, key=attrgetter("resources"))
        ]
        steps = max(1, ceil(rsrc_init_time / step_s))

        # Forecast submissions joining the wait queue mid-cycle
        # (extension: the hybrid mode's predicted inflow).
        task_arrivals: Dict[int, List[ResourceVector]] = {}
        for fa in future_arrivals:
            step = max(1, ceil(fa.eta_s / step_s))
            if step <= steps:
                task_arrivals.setdefault(step, []).append(fa.task.resources)

        # --- lines 3-18: forward simulation over one init cycle, at step 1
        # and at steps that free capacity or add work. Between them dispatch
        # is a fixed point unless a negative free or requested component
        # lets a placement grow capacity; then every step runs (DESIGN §12).
        events = iter(sorted({*completions, *arrivals, *task_arrivals}))
        every_step = any(min(res) < 0 for res, _ in wait_queue)
        t = 1
        while t <= steps:
            for fc, fm, fd in completions.get(t, ()):  # lines 4-7
                ac, am, ad = ac + fc, am + fm, ad + fd
            for fc, fm, fd in arrivals.get(t, ()):  # extension: in-flight pods
                ac, am, ad = ac + fc, am + fm, ad + fd
            for res in task_arrivals.get(t, ()):  # predicted inflow
                every_step = every_step or min(res) < 0
                _push_run(wait_queue, res, 1)
            every_step = every_step or ac < 0 or am < 0 or ad < 0
            wait_queue, (ac, am, ad) = self._dispatch(
                wait_queue, _new(ResourceVector, (ac, am, ad))
            )
            t = t + 1 if every_step else next((e for e in events if e > t), steps + 1)
        ava = _new(ResourceVector, (ac, am, ad))
        waiting_after = sum(count for _, count in wait_queue)

        def removable() -> int:
            limit = max(0, active_workers - min_workers)
            return min(self._num_idle_workers(ava, idle_workers), limit)

        # --- lines 19-21: resources are enough. The pseudocode holds
        # steady here; the paper's controller ("scale down if RSH < 0")
        # additionally releases whole idle workers — see EstimatorConfig.
        if not waiting_after:
            if cfg.scale_down_on_empty_queue:
                idle_removable = removable()
                if idle_removable > 0:
                    next_action = max(cfg.min_cycle_s, min(max_run, cfg.default_cycle_s))
                    return ScalePlan(-idle_removable, next_action, 0, ava.cores)
            return ScalePlan(0, cfg.default_cycle_s, 0, ava.cores)

        # --- lines 22-24: spare whole workers at cycle end → scale down
        idle_removable = removable()
        if idle_removable > 0:
            next_action = max(cfg.min_cycle_s, max_run)
            return ScalePlan(-idle_removable, next_action, waiting_after, ava.cores)

        # --- line 25: scale up by the workers the waiting tasks need
        needed = first_fit_decreasing(wait_queue, self.worker_capacity)
        if max_workers is not None:
            in_flight = len(pending)
            headroom = max(0, max_workers - active_workers - in_flight)
            needed = min(needed, headroom)
        next_action = max(cfg.min_cycle_s, rsrc_init_time)
        return ScalePlan(needed, next_action, waiting_after, ava.cores)

    # ------------------------------------------------------------ internals
    @staticmethod
    def _dispatch(runs: List[Run], ava: ResourceVector) -> Tuple[List[Run], ResourceVector]:
        """Lines 8-17: first-fit dispatch of the waiting runs into ``ava``.

        Pure function of its inputs: returns the still-waiting runs and
        the capacity left after dispatch. Dispatched tasks are assumed to
        hold their resources past the cycle end (conservative: their
        remaining runtime usually exceeds the remaining cycle; the paper's
        pseudocode makes the same simplification by never re-completing
        newly dispatched tasks inside the loop).

        Each placement makes the per-task pass's ``is_zero`` check, its
        ``fits_in`` and its ``clamp_floor``, so ``ava`` is float-identical.
        A run whose next task does not fit is skipped whole: ``ava`` has
        not changed since, so no later task of the run fits either.
        """
        remaining: List[Run] = []
        for i, (res, count) in enumerate(runs):
            if ava.is_zero():  # lines 9-11
                for run in runs[i:]:
                    _push_run(remaining, *run)
                break
            left = count
            while left and res.fits_in(ava):  # lines 12-16
                ava = (ava - res).clamp_floor(0.0)
                left -= 1
                if ava.is_zero():
                    break
            if left:
                _push_run(remaining, res, left)
        return remaining, ava

    def _num_idle_workers(self, ava: ResourceVector, idle_workers: int) -> int:
        """Whole workers' worth of spare capacity, bounded by how many
        workers are actually idle (a busy worker cannot be drained
        instantly; it stops accepting work and exits later)."""
        by_capacity = self.worker_capacity.copies_fitting_in(ava)
        return min(by_capacity, idle_workers)


def _push_run(runs: List[Run], resources: ResourceVector, count: int) -> None:
    """Append ``count`` tasks to the tail of ``runs``, merging equal
    resources into the tail run."""
    if runs and runs[-1][0] == resources:
        runs[-1] = (resources, runs[-1][1] + count)
    else:
        runs.append((resources, count))
