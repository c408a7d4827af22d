"""Tests for the experiment runner machinery."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.resources import ResourceVector
from repro.experiments.runner import (
    DEADLINE,
    DRAINED,
    FINISHED,
    SIM_LIMIT,
    ExperimentSpec,
    ExperimentTimeout,
    StackConfig,
    drive,
    ensure_graph,
    run_experiment,
)
from repro.makeflow.dag import WorkflowGraph
from repro.sim.engine import Engine
from repro.workloads.synthetic import uniform_bag


def small_stack(**overrides):
    defaults = dict(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=4,
            node_reservation_mean_s=60.0,
            node_reservation_std_s=0.0,
        ),
        seed=1,
    )
    defaults.update(overrides)
    return StackConfig(**defaults)


class TestEnsureGraph:
    def test_accepts_task_list(self):
        g = ensure_graph(uniform_bag(3))
        assert isinstance(g, WorkflowGraph)
        assert len(g) == 3

    def test_passes_through_graph(self):
        g = WorkflowGraph(uniform_bag(3))
        assert ensure_graph(g) is g


class TestStackConfig:
    def test_default_worker_request_is_allocatable(self):
        cfg = small_stack()
        assert cfg.resolved_worker_request() == N1_STANDARD_4_RESERVED.allocatable

    def test_explicit_worker_request_wins(self):
        req = ResourceVector(1, 512, 512)
        cfg = small_stack(worker_request=req)
        assert cfg.resolved_worker_request() == req


class TestResults:
    def test_result_fields_populated(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(8, execute_s=20.0, declared=True),
                policy="hta",
                stack=small_stack(),
            )
        )
        assert r.name == "HTA"
        assert r.tasks_total == 8
        assert r.tasks_completed == 8
        assert r.makespan_s > 0
        assert r.nodes_peak >= 2
        assert r.workers_started >= 2
        assert "plans" in r.extras
        assert "HTA" in r.summary()

    def test_seed_override(self):
        r1 = run_experiment(
            ExperimentSpec(
                uniform_bag(8, execute_s=20.0, declared=True),
                policy="hta",
                stack=small_stack(),
                seed=99,
            )
        )
        assert r1.tasks_completed == 8

    def test_hpa_result_name_from_target(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(6, execute_s=20.0, declared=True),
                policy="hpa",
                stack=small_stack(),
                options={"target_cpu": 0.35},
            )
        )
        assert r.name == "HPA-35%"
        assert "scale_events" in r.extras

    def test_series_accessible(self):
        r = run_experiment(
            ExperimentSpec(
                uniform_bag(6, execute_s=20.0, declared=True),
                policy="hta",
                stack=small_stack(),
            )
        )
        for name in ("supply", "in_use", "shortage", "waste", "demand", "nodes"):
            assert r.series(name) is not None

    def test_timeout_raises(self):
        with pytest.raises(ExperimentTimeout):
            run_experiment(
                ExperimentSpec(
                    uniform_bag(50, execute_s=1000.0, declared=True),
                    policy="hta",
                    stack=small_stack(max_sim_time_s=100.0),
                )
            )


def ticking_engine(period_s: float = 1.0, until_s: float = 1000.0) -> Engine:
    """An engine with one event every ``period_s`` up to ``until_s``."""
    engine = Engine()
    t = period_s
    while t <= until_s:
        engine.call_at(t, lambda: None)
        t += period_s
    return engine


class TestDrive:
    def test_finished_stops_at_the_chunk_boundary(self):
        engine = ticking_engine()
        stop = drive(engine, lambda: engine.now >= 10.0, until=500.0, chunk_s=60.0)
        assert stop == FINISHED
        # The predicate is checked between chunks, so the clock (and an
        # accounting window closed after the stop) sits on a boundary.
        assert engine.now == 60.0

    def test_finished_is_checked_before_the_first_chunk(self):
        engine = ticking_engine()
        assert drive(engine, lambda: True, until=0.0) == FINISHED
        assert engine.events_fired == 0

    def test_sim_limit(self):
        engine = ticking_engine()
        stop = drive(engine, lambda: False, until=125.0, chunk_s=60.0)
        assert stop == SIM_LIMIT
        assert engine.now == 125.0
        assert engine.events_fired == 125

    def test_queue_drained(self):
        engine = ticking_engine(until_s=30.0)
        stop = drive(engine, lambda: False, until=500.0, chunk_s=60.0)
        assert stop == DRAINED
        # The one chunk ran to its end with the queue already empty.
        assert engine.now == 60.0
        assert engine.events_fired == 30

    def test_deadline_already_past_runs_nothing(self):
        engine = ticking_engine()
        stop = drive(engine, lambda: False, until=500.0, deadline=0.0)
        assert stop == DEADLINE
        assert engine.events_fired == 0 and engine.now == 0.0

    def test_max_events_bounds_each_chunk(self):
        engine = ticking_engine()
        chunks = []

        def finished() -> bool:
            chunks.append(engine.events_fired)
            return engine.events_fired >= 10

        assert drive(engine, finished, until=500.0, max_events=4) == FINISHED
        assert chunks == [0, 4, 8, 12]
