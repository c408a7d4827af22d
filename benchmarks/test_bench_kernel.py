"""Micro-benchmarks of the simulation substrate itself.

These keep the kernel honest as the codebase grows: event throughput,
link re-planning under churn, and a full mid-sized experiment, measured
with pytest-benchmark's normal multi-round statistics (unlike the figure
benches, these are cheap enough to repeat).
"""

from __future__ import annotations

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import ExperimentSpec, StackConfig, run_experiment
from repro.sim.engine import Engine
from repro.wq.link import Link
from repro.workloads.synthetic import uniform_bag


def test_engine_event_throughput(benchmark):
    """Schedule-and-fire cost for 10k chained events."""

    def run():
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                engine.call_in(1.0, tick)

        engine.call_in(1.0, tick)
        engine.run()
        return count[0]

    assert benchmark(run) == 10_000


def test_link_replan_churn(benchmark):
    """500 staggered transfers forcing continual fair-share re-planning."""

    def run():
        engine = Engine()
        link = Link(engine, 1000.0)
        for i in range(500):
            engine.call_at(
                float(i % 50), lambda i=i: link.start_transfer(f"t{i}", 100.0)
            )
        engine.run()
        return link.transfers_completed

    assert benchmark(run) == 500


def test_full_experiment_wall_time(benchmark):
    """A mid-sized HTA experiment end-to-end (the harness's unit cost)."""
    cfg = StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED, min_nodes=2, max_nodes=6
        ),
        seed=3,
    )

    def run():
        return run_experiment(
            ExperimentSpec(
                uniform_bag(40, execute_s=60.0, declared=True), policy="hta", stack=cfg
            )
        )

    result = benchmark(run)
    assert result.tasks_completed == 40
