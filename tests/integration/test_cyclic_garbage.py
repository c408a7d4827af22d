"""Cyclic-garbage guard: runs free their objects by refcount.

Each run here goes to completion with the cyclic collector off and
``gc.DEBUG_SAVEALL`` on, and then, with the whole stack still reachable,
collects once. Everything a task, transfer or worker pod left behind
must already be gone: a reference cycle among the dead (a run and the
transfer whose callback closes over it, a worker and its pod) shows up
here as unreachable objects, listed by type in the failure message.
"""

from __future__ import annotations

import collections
import gc
from contextlib import contextmanager

import pytest

import repro.soak.harness as soak_harness
from repro.cluster.cluster import ClusterConfig
from repro.experiments.runner import (
    ExperimentSpec,
    FaultProfile,
    StackConfig,
    _assembled,
    drive,
)
from repro.makeflow.dag import WorkflowGraph
from repro.makeflow.manager import WorkflowManager
from repro.perf.scenarios import PerfScenario
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.soak.harness import SoakConfig, run_soak
from repro.telemetry.session import TelemetryConfig
from repro.workloads.synthetic import uniform_bag


@contextmanager
def collector_off():
    """Disable the collector and keep what it finds; yields a check that
    collects and fails on any unreachable object."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield assert_no_cyclic_garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def assert_no_cyclic_garbage() -> None:
    found = gc.collect()
    kinds = collections.Counter(type(o).__name__ for o in gc.garbage)
    gc.garbage.clear()
    assert found == 0, f"{found} objects of cyclic garbage: {kinds.most_common(12)}"


def drive_and_check(spec: ExperimentSpec) -> None:
    """Drive ``spec`` to completion, then check while its stack lives."""
    with _assembled(spec, TelemetryConfig(enabled=False)) as (
        stack, _graph, harness, manager, accountant
    ):
        with collector_off() as check:
            accountant.start()
            manager.start()
            drive(
                stack.engine,
                lambda: manager.done or manager.failed,
                until=stack.config.max_sim_time_s,
                max_events=4096,
            )
            accountant.stop()
            if harness.finish is not None:
                harness.finish()
            assert manager.done
            check()


@pytest.mark.parametrize(
    "policy, options",
    [("hta", {}), ("sharded", {"shards": 4}), ("hpa", {})],
    ids=["hta", "sharded4", "hpa"],
)
def test_policy_run_leaves_no_cyclic_garbage(policy, options):
    scenario = PerfScenario(
        name=f"guard-{policy}",
        n_tasks=200,
        max_nodes=20,
        policy=policy,
        execute_s=60.0,
        options=options,
    )
    drive_and_check(scenario.build_spec())


def test_node_crashes_mid_transfer_leave_no_cyclic_garbage():
    """Node crashes kill busy workers while their 3 GB inputs and
    outputs are on the link, so the kills cancel live transfers."""
    tasks = uniform_bag(
        120,
        execute_s=60.0,
        input_mb=3000.0,
        output_mb=3000.0,
        rng=RngRegistry(1),
        runtime_cv=0.5,
    )
    stack = StackConfig(
        cluster=ClusterConfig(max_nodes=12),
        seed=1,
        faults=FaultProfile(node_crash_interval_s=60.0, max_retries=20),
    )
    drive_and_check(ExperimentSpec(tasks, "hta", stack=stack))


@pytest.mark.parametrize(
    "seed, exercised",
    [(25, "migrations_completed"), (12, "shard_crashes")],
    ids=["migration", "shard-crash"],
)
def test_soak_smoke_leaves_no_cyclic_garbage(monkeypatch, seed, exercised):
    """Chaos soaks: checkpoint migrations, pod and node kills, partitions
    and shard failover. The check runs as the soak's stack closes."""
    assembled = soak_harness._assembled

    @contextmanager
    def checked(spec, telemetry):
        with assembled(spec, telemetry) as parts:
            yield parts
            check()

    monkeypatch.setattr(soak_harness, "_assembled", checked)
    with collector_off() as check:
        report = run_soak(seed, SoakConfig().smoke())
    assert report.ok, report.describe()
    assert report.stats[exercised] > 0 and report.stats["pods_killed"] > 0


def test_bag_allocates_no_per_task_edge_sets():
    tasks = uniform_bag(50)
    graph = WorkflowGraph(tasks)
    edge_sets = {id(s) for s in graph.dependencies.values()}
    edge_sets |= {id(s) for s in graph.dependents.values()}
    assert len(edge_sets) == 1

    class Sink:
        def submit(self, task):
            pass

        def on_complete(self, fn):
            pass

    manager = WorkflowManager(Engine(), graph, Sink())
    assert manager._remaining_deps == {}
