"""Bench: the long-running facility — a day-scale stream of workflows.

The paper's opening scenario: an HTC facility completing "as many jobs
as possible over a long period of time". A Poisson stream of BLAST-like
workflow instances arrives over ~8 simulated hours; HTA and HPA manage
the same stream. Stream-level effects the single-workflow figures can't
show:

* category statistics persist across workflow instances — only the very
  first instance pays warm-up probes;
* demand is a superposition of overlapping DAGs, so supply must track a
  fluctuating aggregate, not one ramp-dip-ramp shape.
"""

from __future__ import annotations

from benchmarks.conftest import run_once

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.makeflow.dag import WorkflowGraph
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import poisson_arrivals, total_tasks
from repro.workloads.synthetic import uniform_bag


def workflow_factory(i: int) -> WorkflowGraph:
    return WorkflowGraph(
        uniform_bag(20, execute_s=240.0, declared=False, category="analysis")
    )


def make_arrivals(seed: int):
    return poisson_arrivals(
        workflow_factory,
        rng=RngRegistry(seed),
        rate_per_hour=4.0,
        horizon_s=8 * 3600.0,
    )


def stack(seed=0):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=3,
            max_nodes=12,
            max_concurrent_reservations=10,
        ),
        seed=seed,
        max_sim_time_s=200_000.0,
    )


def test_facility_stream(benchmark, capsys):
    def run_both():
        hta = run_experiment(
            ExperimentSpec(
                make_arrivals(0), policy="hta", stack=stack(0), name="HTA-stream"
            )
        )
        hpa = run_experiment(
            ExperimentSpec(
                make_arrivals(0),
                policy="hpa",
                stack=stack(0),
                name="HPA-20%-stream",
                options={"target_cpu": 0.2, "min_replicas": 3, "max_replicas": 12},
            )
        )
        return hta, hpa

    hta, hpa = run_once(benchmark, run_both)
    with capsys.disabled():
        print()
        print(f"  HTA : {hta.summary()}")
        print(f"  HPA : {hpa.summary()}")

    expected = total_tasks(make_arrivals(0))
    assert hta.tasks_completed == expected
    assert hpa.tasks_completed == expected
    assert hta.workflows == hpa.workflows >= 10

    # Only the first instance probes: later workflows are faster.
    first, *rest = hta.workflow_makespans
    assert sum(m < first for m in rest) >= len(rest) // 2

    # Facility-level efficiency: HTA wastes less over the whole day.
    assert (
        hta.accounting.accumulated_waste_core_s
        < hpa.accounting.accumulated_waste_core_s
    )
    assert hta.accounting.utilization > hpa.accounting.utilization
