"""Task-allocation policies: how much of a worker does a task get?

§III-A/§IV-A describe three regimes, each captured as an estimator the
master consults at dispatch:

* :class:`ConservativeEstimator` — resources unknown → one task occupies
  the **whole worker** (Work Queue's safe default; the fig-4
  coarse-grained-unknown configuration);
* :class:`DeclaredResourceEstimator` — trust the task's declaration (the
  fig-4 "resource requirements known in advance" configuration);
* :class:`MonitorEstimator` — the paper's scheme: declaration if present,
  else the per-category estimate from the resource monitor; a category
  with no completed sample yet gets a whole-worker **probe** so its first
  task "uses a worker-pod exclusively [and] has resource consumption
  measured" (§IV-A step ii).
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.cluster.resources import ResourceVector
from repro.wq.monitor import ResourceMonitor
from repro.wq.task import Task


class AllocationEstimator(Protocol):
    """Returns the allocation to reserve on ``worker_capacity`` for
    ``task``, or None to reserve the entire worker."""

    def allocation_for(
        self, task: Task, worker_capacity: ResourceVector
    ) -> Optional[ResourceVector]:
        ...  # pragma: no cover - protocol signature


class ConservativeEstimator:
    """Unknown resources → whole worker; declarations are ignored too
    (models a deployment that never trusts user declarations)."""

    def allocation_for(
        self, task: Task, worker_capacity: ResourceVector
    ) -> Optional[ResourceVector]:
        return None


class DeclaredResourceEstimator:
    """Use the task's declaration; fall back to whole worker if absent."""

    def allocation_for(
        self, task: Task, worker_capacity: ResourceVector
    ) -> Optional[ResourceVector]:
        return task.declared


class MonitorEstimator:
    """Declaration → monitor category estimate → whole-worker probe.

    The §IV-A semantics: the first task of a category runs alone on a
    whole worker so the monitor gets a clean measurement.
    """

    def __init__(self, monitor: ResourceMonitor):
        self.monitor = monitor

    def allocation_for(
        self, task: Task, worker_capacity: ResourceVector
    ) -> Optional[ResourceVector]:
        if task.declared is not None:
            return task.declared
        estimate = self.monitor.resource_estimate(task.category)
        if estimate is not None:
            # Never estimate above a whole worker; a too-large estimate
            # would make the task permanently unschedulable.
            if not estimate.fits_in(worker_capacity):
                return None
            return estimate
        return None  # whole-worker probe for a first-of-category task
