"""The resource monitor: per-category statistics of completed tasks.

§IV-A: "By collecting the resource usage of complete jobs, we can
estimate the resource requirements of jobs belonging to the same stage"
— the monitor is the feedback input of HTA's controller (fig 7's "runtime
statics of completed jobs"). For each category we keep running aggregates
of execution time and measured resource consumption; the estimate served
to the dispatcher is a small safety margin above the observed maximum
(Work Queue's monitor sizes allocations the same way, ref. [25]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.resources import ResourceVector
from repro.wq.task import TaskResult


@dataclass
class CategoryStats:
    """Aggregates for one task category."""

    category: str
    count: int = 0
    total_execute_s: float = 0.0
    max_execute_s: float = 0.0
    min_execute_s: float = float("inf")
    max_resources: ResourceVector = field(default_factory=ResourceVector.zero)
    #: Allocation floor raised by resource-exhaustion kills (Work Queue's
    #: max-allocation escalation); served through ``resource_estimate`` so
    #: both the dispatcher and HTA's planner see post-escalation sizes.
    escalated_floor: ResourceVector = field(default_factory=ResourceVector.zero)
    escalations: int = 0

    def observe(self, execute_s: float, resources: ResourceVector) -> None:
        self.count += 1
        self.total_execute_s += execute_s
        self.max_execute_s = max(self.max_execute_s, execute_s)
        self.min_execute_s = min(self.min_execute_s, execute_s)
        self.max_resources = self.max_resources.max_with(resources)

    def observe_exhaustion(self, required: ResourceVector) -> None:
        """A task of this category was killed for exceeding its
        allocation; raise the category floor to what the retry needs."""
        self.escalated_floor = self.escalated_floor.max_with(required)
        self.escalations += 1

    @property
    def mean_execute_s(self) -> float:
        return self.total_execute_s / self.count if self.count else 0.0

    def resource_estimate(self, safety_margin: float = 0.0) -> Optional[ResourceVector]:
        """Allocation recommendation: observed max, padded by the margin.

        Cores are never padded below one whole core's granularity issue:
        we pad multiplicatively and leave rounding to the dispatcher.
        """
        if self.count == 0 and self.escalated_floor.is_zero():
            return None
        return self.max_resources.scale(1.0 + safety_margin).max_with(
            self.escalated_floor
        )

    def runtime_estimate(self) -> Optional[float]:
        return self.mean_execute_s if self.count else None


class ResourceMonitor:
    """Collects :class:`TaskResult` observations, grouped by category."""

    def __init__(self, safety_margin: float = 0.0):
        if safety_margin < 0:
            raise ValueError("safety_margin must be non-negative")
        self.safety_margin = safety_margin
        self._stats: Dict[str, CategoryStats] = {}
        self.results: List[TaskResult] = []

    # --------------------------------------------------------------- writes
    def record(self, result: TaskResult) -> None:
        self.results.append(result)
        stats = self._stats.setdefault(result.category, CategoryStats(result.category))
        stats.observe(result.execute_seconds, result.measured_resources)

    def observe_exhaustion(self, category: str, required: ResourceVector) -> None:
        """Record a resource-exhaustion escalation for ``category``."""
        stats = self._stats.setdefault(category, CategoryStats(category))
        stats.observe_exhaustion(required)

    def reset(self) -> None:
        """Forget all observations (a crashed master lost its memory;
        recovery re-feeds the monitor from the journal). Mutates in
        place — consumers hold the monitor by reference."""
        self._stats.clear()
        self.results.clear()

    # ---------------------------------------------------------------- reads
    def category(self, name: str) -> Optional[CategoryStats]:
        return self._stats.get(name)

    def categories(self) -> Dict[str, CategoryStats]:
        return dict(self._stats)

    def has_estimate(self, category: str) -> bool:
        stats = self._stats.get(category)
        return stats is not None and stats.count > 0

    def resource_estimate(self, category: str) -> Optional[ResourceVector]:
        stats = self._stats.get(category)
        if stats is None:
            return None
        return stats.resource_estimate(self.safety_margin)

    def runtime_estimate(self, category: str) -> Optional[float]:
        stats = self._stats.get(category)
        return None if stats is None else stats.runtime_estimate()

    @property
    def completed_count(self) -> int:
        return len(self.results)

    @property
    def escalation_count(self) -> int:
        return sum(s.escalations for s in self._stats.values())

    def mean_turnaround(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.turnaround for r in self.results) / len(self.results)
