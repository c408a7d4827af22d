"""Tests for the soak invariant checkers.

Ledger checkers are exercised on minimal duck-typed stand-ins (they
only read ``.id``/``.speculation_of``); the journal-replay checker runs
against a real master so the replay path is the production one.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster.api import KubeApiServer
from repro.cluster.cloud import PreemptiblePoolConfig
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4, Node
from repro.cluster.pod import Pod, PodSpec, REASON_FAILED_SCHEDULING
from repro.soak.invariants import (
    check_accounting_aggregates,
    check_journal_replay,
    check_migration_protocol,
    check_scheduler_indexes,
    check_task_conservation,
    check_trace_consistency,
    check_version_monotonic,
)
from repro.sim.rng import RngRegistry
from repro.telemetry.events import NULL_TRACER
from repro.cluster.resources import ResourceVector
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import Task
from repro.wq.worker import Worker


IMAGE = ContainerImage("img", 10)


def fake_task(tid):
    return SimpleNamespace(id=tid, speculation_of=None)


def ledgers(submitted, done, abandoned):
    graph = SimpleNamespace(tasks=[fake_task(i) for i in submitted])
    master = SimpleNamespace(
        done=[fake_task(i) for i in done],
        abandoned=[fake_task(i) for i in abandoned],
    )
    return graph, master


class TestTaskConservation:
    def test_clean_partition_of_outcomes_passes(self):
        assert check_task_conservation(*ledgers([1, 2, 3], [1, 3], [2])) == []

    def test_duplicate_completion_flagged(self):
        (v,) = check_task_conservation(*ledgers([1, 2], [1, 1, 2], []))
        assert v.invariant == "task-conservation"
        assert "more than once" in v.detail

    def test_done_and_abandoned_flagged(self):
        violations = check_task_conservation(*ledgers([1, 2], [1, 2], [2]))
        assert any("both completed and abandoned" in v.detail for v in violations)

    def test_lost_task_flagged(self):
        (v,) = check_task_conservation(*ledgers([1, 2, 3], [1], [2]))
        assert "neither completed nor abandoned" in v.detail

    def test_phantom_resolution_flagged(self):
        (v,) = check_task_conservation(*ledgers([1], [1, 9], []))
        assert "never submitted" in v.detail


class TestVersionMonotonic:
    def test_increasing_stream_passes(self):
        probe = SimpleNamespace(versions={"Pod": [1, 2, 5, 9], "Node": []})
        assert check_version_monotonic(probe) == []

    def test_regression_flagged_once_per_kind(self):
        probe = SimpleNamespace(versions={"Pod": [1, 5, 3, 2]})
        (v,) = check_version_monotonic(probe)
        assert v.invariant == "version-monotonic"
        assert "version 3 after 5" in v.detail


class TestJournalReplay:
    @pytest.fixture
    def quiesced_master(self, engine):
        master = Master(
            engine, Link(engine, 100.0), estimator=DeclaredResourceEstimator()
        )
        Worker(engine, master, "w1", ResourceVector(4, 4096, 4096))
        foot = ResourceVector(1, 512, 128)
        for _ in range(3):
            master.submit(Task("c", execute_s=30.0, footprint=foot, declared=foot))
        engine.run(until=500.0)
        assert len(master.done) == 3
        return master

    def test_quiesced_master_replays_exactly(self, quiesced_master):
        assert check_journal_replay(quiesced_master) == []

    def test_tampered_done_ledger_flagged(self, quiesced_master):
        quiesced_master.done.pop()
        violations = check_journal_replay(quiesced_master)
        assert any(v.invariant == "journal-replay" for v in violations)

    def test_reordered_ledger_flagged_as_order_only(self, quiesced_master):
        quiesced_master.done.reverse()
        (v,) = check_journal_replay(quiesced_master)
        assert "order_only=True" in v.detail


def migration_journal(*records):
    """A duck-typed master exposing only ``journal.records``."""

    def rec(op, tid, progress=None, execute_s=100.0):
        return SimpleNamespace(
            op=op,
            task=SimpleNamespace(id=tid, execute_s=execute_s),
            progress=progress,
        )

    return SimpleNamespace(
        journal=SimpleNamespace(records=[rec(*r[:2], **r[2]) for r in records])
    )


class TestMigrationProtocol:
    def test_clean_migration_sequence_passes(self):
        master = migration_journal(
            ("submit", 1, {}),
            ("dispatch", 1, {}),
            ("checkpoint", 1, {"progress": 10.0}),
            ("checkpoint", 1, {"progress": 20.0}),
            ("migrate_out", 1, {"progress": 20.0}),
            ("migrate_in", 1, {"progress": 20.0}),
            ("complete", 1, {}),
        )
        assert check_migration_protocol(master) == []

    def test_progress_regression_flagged(self):
        master = migration_journal(
            ("checkpoint", 1, {"progress": 20.0}),
            ("checkpoint", 1, {"progress": 10.0}),
        )
        (v,) = check_migration_protocol(master)
        assert v.invariant == "migration-protocol"
        assert "regressed" in v.detail

    def test_overbanked_progress_flagged(self):
        master = migration_journal(
            ("checkpoint", 1, {"progress": 150.0, "execute_s": 100.0}),
        )
        (v,) = check_migration_protocol(master)
        assert "more than its" in v.detail

    def test_duplicate_resume_flagged(self):
        master = migration_journal(
            ("dispatch", 1, {}),
            ("migrate_in", 1, {}),  # no migrate_out cleared the attempt
        )
        (v,) = check_migration_protocol(master)
        assert "duplicate resume" in v.detail

    def test_interleaved_tasks_tracked_independently(self):
        master = migration_journal(
            ("dispatch", 1, {}),
            ("dispatch", 2, {}),
            ("migrate_out", 1, {"progress": 10.0}),
            ("migrate_in", 1, {"progress": 10.0}),
            ("complete", 2, {}),
            ("complete", 1, {}),
        )
        assert check_migration_protocol(master) == []

    def test_real_migrated_run_passes(self, engine):
        """A production master that actually migrated satisfies the
        checker (not just the synthetic journals above)."""
        from repro.wq.migration import CheckpointSpec

        master = Master(
            engine, Link(engine, 100.0), estimator=DeclaredResourceEstimator()
        )
        Worker(engine, master, "w1", ResourceVector(4, 4096, 4096))
        Worker(engine, master, "w2", ResourceVector(4, 4096, 4096))
        foot = ResourceVector(1, 512, 128)
        task = Task(
            "c",
            execute_s=60.0,
            footprint=foot,
            declared=foot,
            checkpoint=CheckpointSpec(interval_s=10.0, cost_s=1.0, size_mb=10.0),
        )
        master.submit(task)
        engine.run(until=30.0)
        host = next(w for w in master.workers.values() if task.id in w.runs)
        assert host.migrate_out(task)
        engine.run(until=200.0)
        assert len(master.done) == 1
        assert master.migrations_accepted == 1
        assert check_migration_protocol(master) == []


class TestTraceConsistency:
    def test_disabled_tracer_is_vacuously_consistent(self):
        master = SimpleNamespace(done=[], abandoned=[])
        assert check_trace_consistency(master, None, NULL_TRACER) == []


class TestSchedulerIndexes:
    @pytest.fixture
    def cluster(self, engine):
        api = KubeApiServer(engine)
        node = Node("n1", N1_STANDARD_4)
        node.ready = True
        api.create(node)
        pods = [Pod(f"w-{i}", PodSpec(IMAGE, ResourceVector(1, 512, 512))) for i in (9, 10)]
        for pod in pods:
            api.create(pod)
        return api, node, pods

    def test_write_path_keeps_indexes_exact(self, cluster):
        api, node, (a, b) = cluster
        a.mark_scheduled(0.0, node)
        node.bind(a)
        api.mark_modified(a)
        b.add_event(0.0, REASON_FAILED_SCHEDULING, "Insufficient Resource")
        api.mark_modified(b)
        a.mark_finished(1.0)  # frees capacity without an API write
        assert check_scheduler_indexes(api) == []

    def test_bind_without_write_flagged(self, cluster):
        api, node, (a, _) = cluster
        a.mark_scheduled(0.0, node)
        node.bind(a)
        (violation,) = check_scheduler_indexes(api)
        assert "pending index" in violation.detail

    def test_event_without_write_flagged(self, cluster):
        api, _, (a, _) = cluster
        a.add_event(0.0, REASON_FAILED_SCHEDULING, "Insufficient Resource")
        (violation,) = check_scheduler_indexes(api)
        assert "fresh" in violation.detail

    def test_capacity_change_behind_the_index_flagged(self, cluster):
        api, node, (a, _) = cluster
        node.pods.append(a)  # bypasses Node.bind
        node._requested_cache = None
        (violation,) = check_scheduler_indexes(api)
        assert "stale keys ['n1@4" in violation.detail


class TestAccountingAggregates:
    @pytest.fixture
    def stack(self, engine):
        cluster = Cluster(
            engine,
            RngRegistry(5),
            ClusterConfig(min_nodes=2, preemptible=PreemptiblePoolConfig(max_nodes=2)),
        )
        cluster.cloud._register_node(preemptible=True)
        master = Master(engine, Link(engine, 100.0), estimator=DeclaredResourceEstimator())
        workers = [
            Worker(engine, master, f"w{i}", ResourceVector(4, 4096, 4096))
            for i in range(2)
        ]
        foot = ResourceVector(1 / 3, 256, 256)
        for _ in range(5):
            master.submit(Task("t", execute_s=50.0, footprint=foot, declared=foot))
        api = cluster.api
        api.create(Pod("p-1", PodSpec(IMAGE, foot, labels={"app": "a"})))
        api.list("Pod", {"app": "a"})
        engine.run(until=10.0)
        return SimpleNamespace(master=master, cluster=cluster, workers=workers)

    def test_write_paths_keep_aggregates_exact(self, stack, engine):
        assert stack.master.cores_in_use() > 0
        assert check_accounting_aggregates(stack) == []
        api = stack.cluster.api
        node = api.nodes()[0]
        node.deleted = True  # flagged, still stored
        api.begin_outage()
        api.create(Pod("p-2", PodSpec(IMAGE, ResourceVector(1, 1, 1), labels={"app": "a"})))
        stack.workers[0].kill()
        assert check_accounting_aggregates(stack) == []
        engine.run(until=100.0)
        assert check_accounting_aggregates(stack) == []

    def test_deleted_flag_behind_the_setter_flagged(self, stack):
        node = stack.cluster.api.nodes()[0]
        node._deleted = True  # bypasses the node tally
        details = [v.detail for v in check_accounting_aggregates(stack)]
        assert any(d.startswith("cloud.node_count") for d in details)
        assert any(d.startswith("cluster.node_count") for d in details)

    def test_worker_flag_without_refresh_flagged(self, stack):
        master = stack.master
        master.supplied_cores()  # memoize
        stack.workers[0].quarantined = True  # no _refresh_worker_cache
        (violation,) = check_accounting_aggregates(stack)
        assert violation.invariant == "accounting-aggregates"
        assert "supplied_cores = 8" in violation.detail

    def test_relabel_after_create_flagged(self, stack):
        pod = stack.cluster.api.pods({"app": "a"})[0]
        pod.meta.labels["app"] = "b"
        (violation,) = check_accounting_aggregates(stack)
        assert "list(Pod, {'app': 'a'})" in violation.detail

    def test_corrupted_pending_view_flagged(self, stack):
        api = stack.cluster.api
        api.create(Pod("p-2", PodSpec(IMAGE, ResourceVector(1, 1, 1), labels={"app": "a"})))
        assert [p.name for p in api.list_pending({"app": "a"})] == ["p-2"]
        assert check_accounting_aggregates(stack) == []
        api._pending_views[(("app", "a"),)].clear()  # a create the view missed
        (violation,) = check_accounting_aggregates(stack)
        assert "list_pending({'app': 'a'}) = []" in violation.detail

    def test_queue_edit_behind_its_totals_flagged(self, stack):
        queue = stack.master.queue
        assert not queue and check_accounting_aggregates(stack) == []
        queue.cores.total += 1.0  # a push that skipped the running total
        (violation,) = check_accounting_aggregates(stack)
        assert "cores_waiting = '1', rescan = '0'" in violation.detail
