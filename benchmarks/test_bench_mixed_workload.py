"""Bench: heterogeneous multi-category workload (beyond the paper).

The paper's workloads are homogeneous within a run. Real HTC campaigns
mix categories with very different footprints; per-category estimation
is precisely HTA's mechanism for that case (§IV-A "splitting jobs into
sub-categories"). This bench mixes three categories — small CPU-bound,
wide memory-bound, and disk-bound low-CPU tasks, none declared — and
compares HTA against HPA-20.
"""

from __future__ import annotations

from benchmarks.conftest import run_once

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.resources import ResourceVector
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.metrics.summary import format_summary_table
from repro.workloads.synthetic import multi_category_mix


def make_workload():
    return multi_category_mix(
        [
            # (category, count, execute_s, footprint)
            ("cpu-small", 90, 200.0, ResourceVector(1, 1024, 1024)),
            ("mem-wide", 30, 300.0, ResourceVector(1, 7 * 1024, 1024)),
            ("disk-heavy", 60, 250.0, ResourceVector(1, 512, 20 * 1024)),
        ],
        declared=False,
    )


def stack(seed=0):
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=3,
            max_nodes=16,
            max_concurrent_reservations=10,
        ),
        seed=seed,
    )


def test_mixed_categories(benchmark, capsys):
    def run_both():
        hta = run_experiment(
            ExperimentSpec(make_workload(), policy="hta", stack=stack())
        )
        hpa = run_experiment(
            ExperimentSpec(
                make_workload(),
                policy="hpa",
                stack=stack(),
                options={"target_cpu": 0.2, "min_replicas": 3, "max_replicas": 16},
            )
        )
        return hta, hpa

    hta, hpa = run_once(benchmark, run_both)
    with capsys.disabled():
        print()
        print(
            format_summary_table(
                {"HTA": hta.accounting, "HPA(20% CPU)": hpa.accounting},
                title="Mixed categories (90 cpu / 30 mem-wide / 60 disk), undeclared",
            )
        )

    assert hta.tasks_completed == hpa.tasks_completed == 180
    # Per-category estimation pays off on heterogeneous footprints: the
    # memory-wide category packs 2/worker, the others 3/worker — HTA
    # sizes the pool from resources while HPA just rides CPU.
    assert hta.accounting.utilization > hpa.accounting.utilization
    assert (
        hta.accounting.accumulated_waste_core_s
        < hpa.accounting.accumulated_waste_core_s
    )
    # Three categories -> exactly three warm-up probes ran exclusively.
    assert hta.extras["plans"] >= 1
