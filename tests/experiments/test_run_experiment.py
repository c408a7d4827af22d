"""Tests for the single-entry experiment API."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments import runner
from repro.experiments.runner import (
    POLICIES,
    ExperimentSpec,
    PolicyDefinition,
    StackConfig,
    register_policy,
    run_experiment,
)
from repro.telemetry.explain import decision_events, explain_decisions
from repro.telemetry.session import TelemetryConfig
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


def workload():
    return uniform_bag(8, execute_s=20.0, declared=True)


def assert_same_result(a, b):
    """Bit-identical summaries and counters at a fixed seed."""
    assert a.summary() == b.summary()
    assert a.makespan_s == b.makespan_s
    assert a.tasks_completed == b.tasks_completed
    assert a.tasks_requeued == b.tasks_requeued
    assert a.nodes_peak == b.nodes_peak
    assert a.workers_started == b.workers_started
    assert a.extras == b.extras


class TestRunExperiment:
    def test_hta_runs(self):
        r = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=small_stack())
        )
        assert r.tasks_completed == 8
        assert r.name == "HTA"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_experiment(ExperimentSpec(workload(), policy="nope"))

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            run_experiment(
                ExperimentSpec(
                    workload(),
                    policy="hta",
                    stack=small_stack(),
                    options={"typo_option": 1},
                )
            )

    def test_static_validates_before_building(self):
        with pytest.raises(ValueError, match="n_workers must be positive"):
            run_experiment(
                ExperimentSpec(
                    workload(),
                    policy="static",
                    stack=small_stack(),
                    options={"n_workers": 0},
                )
            )

    def test_spec_seed_overrides_stack_seed(self):
        r1 = run_experiment(
            ExperimentSpec(workload(), policy="static", seed=3,
                           stack=small_stack(), options={"n_workers": 2})
        )
        r2 = run_experiment(
            ExperimentSpec(workload(), policy="static", seed=3,
                           stack=small_stack(seed=9), options={"n_workers": 2})
        )
        assert_same_result(r1, r2)

    def test_sharded_policy_runs_and_completes(self):
        r = run_experiment(
            ExperimentSpec(
                workload(),
                policy="sharded",
                stack=small_stack(),
                options={"shards": 2},
            )
        )
        assert r.tasks_completed == 8
        assert r.name == "HTA-sharded2"

    def test_sharded_validates_shard_count_and_mode(self):
        with pytest.raises(ValueError, match="shards must be a positive"):
            run_experiment(
                ExperimentSpec(
                    workload(),
                    policy="sharded",
                    stack=small_stack(),
                    options={"shards": 0},
                )
            )
        with pytest.raises(ValueError, match="unknown option"):
            run_experiment(
                ExperimentSpec(
                    workload(),
                    policy="sharded",
                    stack=small_stack(),
                    options={"partition_mode": "nope"},
                )
            )

    def test_registry_is_extensible(self):
        base = POLICIES["static"]
        register_policy(
            PolicyDefinition(key="static-alias", build=base.build,
                             validate=base.validate)
        )
        try:
            r = run_experiment(
                ExperimentSpec(
                    workload(),
                    policy="static-alias",
                    stack=small_stack(),
                    options={"n_workers": 2},
                )
            )
            assert r.tasks_completed == 8
        finally:
            del POLICIES["static-alias"]


class TestSingleShardEquivalence:
    """A 1-shard Foreman is the bare master behind an aggregating view."""

    @staticmethod
    def journal_and_events(monkeypatch, spec):
        """Run ``spec``; return the master's journal digest and the event
        count at the workflow's done signal."""
        seen = {}
        assembled = runner._assembled

        @contextmanager
        def traced_assembled(spec, telemetry):
            with assembled(spec, telemetry) as parts:
                stack, _graph, _harness, manager, _accountant = parts
                manager.done_signal.add_waiter(
                    lambda _m: seen.setdefault("events", stack.engine.events_fired)
                )
                yield parts
                seen["digest"] = stack.master.journal.digest()

        with monkeypatch.context() as patch:
            patch.setattr(runner, "_assembled", traced_assembled)
            result = run_experiment(spec)
        return seen["digest"], seen["events"], result.makespan_s

    @pytest.mark.parametrize("seed", [1, 7])
    def test_one_shard_foreman_matches_the_bare_master(self, monkeypatch, seed):
        def bag():
            return uniform_bag(60, execute_s=90.0, declared=True)

        stack = small_stack(
            cluster=ClusterConfig(
                machine_type=N1_STANDARD_4_RESERVED,
                min_nodes=2,
                max_nodes=12,
                node_reservation_mean_s=60.0,
                node_reservation_std_s=10.0,
            ),
            seed=seed,
        )
        bare = self.journal_and_events(
            monkeypatch, ExperimentSpec(bag(), policy="hta", stack=stack)
        )
        sharded = self.journal_and_events(
            monkeypatch,
            ExperimentSpec(
                bag(), policy="sharded", stack=stack, options={"shards": 1}
            ),
        )
        assert sharded == bare


class TestTelemetryIntegration:
    def test_disabled_by_default(self):
        r = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=small_stack())
        )
        assert r.telemetry is not None
        assert not r.telemetry.enabled
        assert r.trace_events == []

    def test_decision_audit_every_cycle(self):
        r = run_experiment(
            ExperimentSpec(
                workload(),
                policy="hta",
                stack=small_stack(),
                telemetry=TelemetryConfig(enabled=True),
            )
        )
        decisions = decision_events(r.trace_events)
        assert len(decisions) >= 1
        # Every planning cycle the operator ran left an audit event.
        assert len(decisions) >= r.extras["plans"]
        assert {e.name for e in decisions} == {"decision"}
        table = explain_decisions(r.trace_events)
        assert "HTA decision timeline" in table

    def test_tracing_does_not_change_the_run(self):
        plain = run_experiment(
            ExperimentSpec(workload(), policy="hta", stack=small_stack())
        )
        traced = run_experiment(
            ExperimentSpec(
                workload(),
                policy="hta",
                stack=small_stack(),
                telemetry=TelemetryConfig(enabled=True),
            )
        )
        assert_same_result(plain, traced)

    def test_trace_out_writes_jsonl(self, tmp_path):
        from repro.telemetry.exporters import read_runs_jsonl

        out = tmp_path / "run.jsonl"
        run_experiment(
            ExperimentSpec(
                workload(),
                policy="hta",
                stack=small_stack(),
                telemetry=TelemetryConfig(enabled=True, trace_out=str(out)),
            )
        )
        pairs = read_runs_jsonl(str(out))
        assert pairs
        assert {run for run, _ in pairs} == {"HTA"}

    def test_wq_histograms_recorded_when_enabled(self):
        r = run_experiment(
            ExperimentSpec(
                workload(),
                policy="hta",
                stack=small_stack(),
                telemetry=TelemetryConfig(enabled=True),
            )
        )
        hist = r.telemetry.metrics.histogram(
            "wq_task_execute_seconds", "Task execution time"
        )
        total = sum(snap.count for _, snap in hist.samples())
        assert total == 8
