#!/usr/bin/env python3
"""A long-running HTC facility: workflows arriving all day.

The paper's opening scenario — "complete as many jobs as possible over a
long period of time" — as a runnable demo: a Poisson stream of workflow
instances over four simulated hours, managed once by HTA and once by
HPA, with facility-level statistics (per-workflow makespans, throughput,
day-scale waste).

    python examples/facility_stream.py
"""

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.makeflow.dag import WorkflowGraph
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.synthetic import uniform_bag


def workflow_factory(i: int) -> WorkflowGraph:
    # Every instance is the same pipeline shape; resource requirements
    # are NOT declared — the facility learns them from the first instance
    # and every later arrival skips the probing cost.
    return WorkflowGraph(
        uniform_bag(16, execute_s=180.0, declared=False, category="analysis")
    )


def make_arrivals(seed: int):
    return poisson_arrivals(
        workflow_factory,
        rng=RngRegistry(seed),
        rate_per_hour=5.0,
        horizon_s=4 * 3600.0,
    )


def stack(seed: int = 0) -> StackConfig:
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED, min_nodes=3, max_nodes=10
        ),
        seed=seed,
        max_sim_time_s=100_000.0,
    )


def main() -> None:
    arrivals = make_arrivals(2)
    print(f"{len(arrivals)} workflow instances over 4 simulated hours\n")

    print("Running the stream under HTA ...")
    hta = run_experiment(
        ExperimentSpec(make_arrivals(2), policy="hta", stack=stack(), name="HTA-stream")
    )
    print("Running the same stream under HPA-20% ...")
    hpa = run_experiment(
        ExperimentSpec(
            make_arrivals(2),
            policy="hpa",
            stack=stack(),
            name="HPA-20%-stream",
            options={"target_cpu": 0.2, "min_replicas": 3, "max_replicas": 10},
        )
    )

    print()
    for name, res in (("HTA", hta), ("HPA-20%", hpa)):
        print(f"{name}:")
        print(f"  {res.summary()}")
    print()
    first, *rest = hta.workflow_makespans
    faster = sum(m < first for m in rest)
    print(
        f"Category learning across instances: the first workflow took "
        f"{first:.0f}s (probe included); {faster}/{len(rest)} later "
        f"instances were faster."
    )
    waste_cut = (
        hpa.accounting.accumulated_waste_core_s
        / max(1.0, hta.accounting.accumulated_waste_core_s)
    )
    print(f"Facility-level waste cut by HTA over the stream: {waste_cut:.1f}x")


if __name__ == "__main__":
    main()
