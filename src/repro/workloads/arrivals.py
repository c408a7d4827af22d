"""Workflow arrival streams: the long-running HTC facility.

The paper opens with facilities that "seek to complete as many jobs as
possible over a long period of time" — not one workflow, but a stream of
them. This module generates deterministic arrival schedules (Poisson or
fixed-interval) of workflow instances. A list of arrivals is an
``ExperimentSpec`` workload like any workflow:
``run_experiment(ExperimentSpec(arrivals, policy="hta"))`` runs the
stream on one shared stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.makeflow.dag import WorkflowGraph
from repro.sim.rng import RngRegistry

WorkflowFactory = Callable[[int], WorkflowGraph]


@dataclass(frozen=True, slots=True)
class WorkflowArrival:
    """One workflow instance entering the facility at ``time_s``."""

    time_s: float
    graph: WorkflowGraph
    index: int

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("arrival time must be non-negative")


def poisson_arrivals(
    factory: WorkflowFactory,
    *,
    rng: RngRegistry,
    rate_per_hour: float,
    horizon_s: float,
    stream: str = "arrivals",
) -> List[WorkflowArrival]:
    """Poisson arrivals at ``rate_per_hour`` over ``[0, horizon_s)``.

    ``factory(i)`` builds the i-th workflow instance (it must generate
    fresh Task objects each call — tasks are single-use).
    """
    if rate_per_hour <= 0:
        raise ValueError("rate_per_hour must be positive")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    mean_gap = 3600.0 / rate_per_hour
    arrivals: List[WorkflowArrival] = []
    t = 0.0
    i = 0
    gen = rng.stream(stream)
    while True:
        t += float(gen.exponential(mean_gap))
        if t >= horizon_s:
            break
        arrivals.append(WorkflowArrival(t, factory(i), i))
        i += 1
    return arrivals


def periodic_arrivals(
    factory: WorkflowFactory,
    *,
    interval_s: float,
    count: int,
    start_s: float = 0.0,
) -> List[WorkflowArrival]:
    """``count`` workflows at fixed ``interval_s`` spacing."""
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    if count <= 0:
        raise ValueError("count must be positive")
    return [
        WorkflowArrival(start_s + i * interval_s, factory(i), i) for i in range(count)
    ]


def total_tasks(arrivals: Sequence[WorkflowArrival]) -> int:
    return sum(len(a.graph) for a in arrivals)
