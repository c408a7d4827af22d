"""A run is a function of its spec and seed alone.

Tasks are numbered by a process-wide counter, link transfers by their
link and API objects not at all. No outcome may read a task's number:
the sharded plane routes by the run's own submit order. So a spec
replays the same way whatever the process built before it. Each case
runs one spec four times, after making 0, 1, 2 and 3 unrelated tasks,
transfers and API objects, and demands one journal digest, event count
at the done signal, makespan, waste and shortage.
"""

from __future__ import annotations

import pytest

from htcbench.drive import drive, prepare
from htcbench.workloads import WORKLOADS
from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.objects import KubeObject
from repro.cluster.resources import ResourceVector
from repro.experiments.failover import run_shard_loss
from repro.experiments.runner import ExperimentSpec, StackConfig
from repro.experiments.shards import run_dispatch_plane
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wq.link import Link
from repro.wq.task import Task
from repro.workloads.synthetic import uniform_bag

FOOT = ResourceVector(1, 512, 128)


def make_unrelated(k: int) -> None:
    """Make and drop ``k`` tasks, transfers and API objects."""
    link = Link(Engine(), 10.0)
    for i in range(k):
        Task("unrelated", execute_s=1.0, footprint=FOOT)
        link.start_transfer(f"unrelated-{i}", 1.0)
        KubeObject(f"unrelated-{i}")


def bench_outcome(_run_observed):
    r = drive(prepare(WORKLOADS["deep-queue-sharded4"], 1, 0.25))
    return r.digest, r.events, r.makespan_s, r.waste_core_s, r.shortage_core_s


def experiment_outcome(run_observed, policy, options):
    """Run a 60-task bag of varied runtimes under ``policy``."""
    spec = ExperimentSpec(
        uniform_bag(60, execute_s=90.0, rng=RngRegistry(7), runtime_cv=0.3),
        policy=policy,
        stack=StackConfig(
            cluster=ClusterConfig(
                machine_type=N1_STANDARD_4_RESERVED,
                min_nodes=2,
                max_nodes=12,
                node_reservation_mean_s=60.0,
                node_reservation_std_s=10.0,
            ),
            seed=7,
        ),
        options=options,
    )
    result, digest, events = run_observed(spec)
    acc = result.accounting
    return (
        digest,
        events,
        result.makespan_s,
        acc.accumulated_waste_core_s,
        acc.accumulated_shortage_core_s,
    )


CASES = {
    "htcbench-deep-queue-sharded4": bench_outcome,
    "hta": lambda run: experiment_outcome(run, "hta", {}),
    "sharded4": lambda run: experiment_outcome(run, "sharded", {"shards": 4}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_run_ignores_what_the_process_built_before_it(case, run_observed):
    outcomes = []
    for k in range(4):
        make_unrelated(k)
        outcomes.append(CASES[case](run_observed))
    assert outcomes == outcomes[:1] * 4


def test_the_shard_loss_contrast_ignores_an_earlier_dispatch_plane():
    """``python -m repro.experiments shards failover --smoke`` must report
    what ``failover --smoke`` alone does: the bare plane strands 39 of
    the 600 tasks, whatever ran before it in the process."""
    before = run_shard_loss(failover=False, n_tasks=600)
    run_dispatch_plane(2, n_tasks=300, max_wall_s=60.0)
    after = run_shard_loss(failover=False, n_tasks=600)
    assert before.completed == after.completed == 600 - 39
