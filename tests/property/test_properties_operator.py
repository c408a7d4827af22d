"""Property: HTA's flat input gathering plans exactly what the per-task
gathering planned.

At every resize cycle of a live run the operator plans twice, in the
same state: through :meth:`~repro.hta.operator.HtaOperator.plan_once`
and through :class:`~tests.reference.operator_literal.LiteralPlanner`,
which builds one validated ``SimulatedTask`` and makes one monitor
lookup per task. Planning is side-effect free, so the run itself goes
on as usual. Both planners must hand the estimator ``repr``-equal
inputs (``repr`` tells ``-0.0`` from ``0.0``) and get equal plans.

The runs are small versions of the benchmark's four shapes — a declared
bag deeper than the pool, one task per node, an undeclared multistage
DAG whose categories HTA probes, and the bag over a 4-shard Foreman —
plus the hybrid mode's forecast arrivals and a spot pool planned with
the survival discount.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.cluster.cloud import PreemptiblePoolConfig
from repro.cluster.cluster import ClusterConfig
from repro.cluster.resources import ResourceVector
from repro.experiments.runner import (
    ExperimentSpec,
    FaultProfile,
    StackConfig,
    run_experiment,
)
from repro.hta.operator import HtaConfig, HtaOperator
from repro.hta.provisioner import SpotPolicy
from repro.makeflow.dag import WorkflowGraph
from repro.sim.rng import RngRegistry
from repro.wq.task import FileSpec, Task
from repro.workloads.arrivals import periodic_arrivals
from repro.workloads.synthetic import uniform_bag
from tests.reference.operator_literal import LiteralPlanner

GB = 1024.0


class _Recorder:
    """Stands in for the operator's estimator and records each call."""

    def __init__(self, estimator) -> None:
        self.estimator = estimator
        self.calls: List[str] = []
        self.sizes: List[tuple] = []

    def estimate(self, **kwargs):
        self.calls.append(repr(sorted(kwargs.items())))
        self.sizes.append(tuple(
            len(kwargs[k]) if k != "spot_workers" else kwargs[k]
            for k in ("running", "waiting", "future_arrivals", "spot_workers")
        ))
        return self.estimator.estimate(**kwargs)


@pytest.fixture
def checked_cycles(monkeypatch):
    """Make every ``plan_once`` of a run plan both ways and compare;
    yields, per cycle compared, the counts of running and waiting tasks,
    of forecast arrivals and of spot workers."""
    fast_plan_once = HtaOperator.plan_once
    sizes: List[tuple] = []

    def plan_once(operator):
        real = operator.estimator
        fast, literal = _Recorder(real), _Recorder(real)
        try:
            operator.estimator = fast
            plan = fast_plan_once(operator)
            operator.estimator = literal
            expected = LiteralPlanner(operator).plan_once()
        finally:
            operator.estimator = real
        assert fast.calls == literal.calls
        assert repr(plan) == repr(expected)
        sizes.extend(fast.sizes)
        return plan

    monkeypatch.setattr(HtaOperator, "plan_once", plan_once)
    return sizes


def _stack(max_nodes: int, **kwargs) -> StackConfig:
    return StackConfig(
        cluster=ClusterConfig(min_nodes=2, max_nodes=max_nodes), seed=3, **kwargs
    )


def _multistage(groups: int = 2, fan: int = 6) -> WorkflowGraph:
    """align -> reduce (fan-in) -> refine, undeclared: three signatures
    share the queue and HTA probes each category before fanning out.
    Aligns outgrow their probe's memory, so resource-exhaustion kills
    raise the category estimate above allocations already running, and
    a large shared input keeps tasks fetching across resize cycles."""
    rng = RngRegistry(5)
    reduce_ = ResourceVector(cores=2, memory_mb=6 * GB, disk_mb=4 * GB)
    refine = ResourceVector(cores=1, memory_mb=1 * GB, disk_mb=20 * GB)
    reference = FileSpec("align.reference", 1400.0, cacheable=True)
    tasks: List[Task] = []
    for r in range(groups):
        outs = [FileSpec(f"align.out.{r}.{j}", 5.0) for j in range(fan)]
        for j, out in enumerate(outs):
            align = ResourceVector(1, (2 + j % 3 / 2) * GB, 2 * GB)
            tasks.append(Task(
                "align", execute_s=rng.lognormal_around("align", 120.0, 0.25),
                footprint=align, inputs=(reference,), outputs=(out,),
            ))
        merged = FileSpec(f"reduce.out.{r}", 20.0)
        tasks.append(Task(
            "reduce", execute_s=rng.lognormal_around("reduce", 150.0, 0.25),
            footprint=reduce_, inputs=tuple(outs), outputs=(merged,),
        ))
        for j in range(fan):
            tasks.append(Task(
                "refine", execute_s=rng.lognormal_around("refine", 60.0, 0.25),
                footprint=refine, inputs=(merged,),
                outputs=(FileSpec(f"refine.out.{r}.{j}", 1.0),),
            ))
    return WorkflowGraph(tasks)


def _bag(n: int, execute_s: float, footprint=ResourceVector(1, 4 * GB, 1 * GB)):
    return uniform_bag(
        n, execute_s=execute_s, footprint=footprint, rng=RngRegistry(11),
        runtime_cv=0.25,
    )


SPECS = {
    "declared-bag": lambda: ExperimentSpec(_bag(90, 120.0), stack=_stack(6)),
    "one-per-node": lambda: ExperimentSpec(
        _bag(16, 400.0, ResourceVector(3, 8 * GB, 2 * GB)), stack=_stack(16)
    ),
    "undeclared-multistage": lambda: ExperimentSpec(
        _multistage(), stack=_stack(8, link_capacity_mbps=25.0)
    ),
    "sharded4": lambda: ExperimentSpec(
        _bag(90, 120.0), policy="sharded", stack=_stack(6), options={"shards": 4}
    ),
    "forecast-arrivals": lambda: ExperimentSpec(
        periodic_arrivals(
            lambda i: WorkflowGraph(_bag(12, 60.0)), interval_s=200.0, count=3
        ),
        stack=_stack(8),
        options={
            "hta_config": HtaConfig(
                initial_workers=2, max_workers=8, forecast_arrivals=True
            )
        },
    ),
    "spot-aware": lambda: ExperimentSpec(
        _bag(40, 120.0),
        stack=StackConfig(
            cluster=ClusterConfig(
                max_nodes=8,
                preemptible=PreemptiblePoolConfig(max_nodes=4, grace_period_s=30.0),
            ),
            seed=7,
            faults=FaultProfile(
                preemption_wave_at_s=260.0, preemption_wave_size=2, max_retries=10
            ),
        ),
        options={"spot_policy": SpotPolicy(0.5), "spot_aware": True},
    ),
}


@pytest.mark.parametrize("name", list(SPECS))
def test_flat_plan_once_matches_the_per_task_one_every_cycle(name, checked_cycles):
    result = run_experiment(SPECS[name]())
    assert result.tasks_completed == result.tasks_total
    # Not vacuous: cycles planned over running and over waiting tasks,
    # and over what the run's shape adds.
    assert len(checked_cycles) >= 5
    running, waiting, forecast, spot = (max(c) for c in zip(*checked_cycles))
    assert running and waiting
    assert bool(forecast) == (name == "forecast-arrivals")
    assert bool(spot) == (name == "spot-aware")
