"""Network partitions: liveness, reconnect backoff, result re-delivery.

The data-plane failure model (DESIGN.md §11): a partitioned worker keeps
executing and holds finished results; the master starts a liveness clock
and declares the worker lost only when it expires; a heal inside the
window re-adopts the runs without a requeue, and held results re-deliver
through the idempotent duplicate-suppression path.
"""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.migration import CheckpointSpec
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker, WorkerState

FOOT = ResourceVector(1, 512, 128)
CAP = ResourceVector(4, 4096, 4096)


@pytest.fixture
def master(engine):
    return Master(engine, Link(engine, 100.0), estimator=DeclaredResourceEstimator())


def make_task(execute_s=60.0, category="c", declared=None):
    return Task(
        category,
        execute_s=execute_s,
        footprint=FOOT,
        declared=declared if declared is not None else FOOT,
    )


def add_worker(engine, master, name="w1", latency=1.0):
    return Worker(engine, master, name, CAP, connect_latency=latency)


def begin_partition(engine, master, worker, duration_s):
    """What ChaosInjector.begin_partition does, without a cluster."""
    worker.partition()
    master.worker_unreachable(worker)
    engine.call_in(duration_s, worker.heal)


class TestReconnectBoundaries:
    def test_partition_shorter_than_reconnect_base_readopts(self, engine, master):
        """A blip below RECONNECT_BASE_S heals before the first poll:
        the very first reconnect attempt succeeds and the run survives
        without a requeue."""
        w = add_worker(engine, master)
        task = make_task(execute_s=100.0)
        master.submit(task)
        engine.run(until=10.0)
        assert task.id in w.runs
        begin_partition(engine, master, w, duration_s=Worker.RECONNECT_BASE_S / 2)
        engine.run(until=10.0 + Worker.RECONNECT_BASE_S + 0.5)
        assert not w.partitioned
        assert w.reconnects == 1
        assert task.id in w.runs
        assert master.tasks_requeued == 0
        engine.run(until=200.0)
        assert task.state is TaskState.DONE
        assert task.attempts == 0

    def test_partition_straddling_reconnect_max_readopts(self, engine, master):
        """A partition longer than RECONNECT_MAX_S: several polls fail,
        the backoff caps, and the first post-heal poll still re-adopts
        the run without a requeue (liveness window not yet expired).

        Poll times after a t=10 partition: +2, +6, +14, +30, +60 — the
        44 s partition heals between the +30 and +60 polls, past the
        30 s backoff cap."""
        master.liveness_timeout_s = 120.0  # keep liveness out of the race
        w = add_worker(engine, master)
        task = make_task(execute_s=200.0)
        master.submit(task)
        engine.run(until=10.0)
        duration = Worker.RECONNECT_MAX_S + 14.0
        begin_partition(engine, master, w, duration_s=duration)
        engine.run(until=10.0 + duration - 1.0)
        assert w.partitioned and task.id in w.runs  # still executing
        engine.run(until=10.0 + 60.0 + 1.0)  # first post-heal poll
        assert w.reconnects == 1
        assert task.id in w.runs
        assert master.tasks_requeued == 0
        assert master.workers_declared_lost == 0
        engine.run(until=400.0)
        assert task.state is TaskState.DONE
        assert task.attempts == 0

    def test_partition_past_liveness_requeues_exactly_unclaimed(self, engine, master):
        """A partition outliving the master's grace: the worker is
        declared lost and exactly its unclaimed runs requeue — tasks on
        other workers are untouched."""
        w1 = add_worker(engine, master, "w1")
        # Declared to fill the whole worker so t_other cannot co-locate.
        t_long = make_task(execute_s=500.0, declared=CAP)
        master.submit(t_long)
        engine.run(until=5.0)
        assert t_long.id in w1.runs
        w2 = add_worker(engine, master, "w2", latency=1.0)
        t_other = make_task(execute_s=500.0)
        master.submit(t_other)
        engine.run(until=10.0)
        assert t_other.id in w2.runs
        begin_partition(
            engine, master, w1, duration_s=master.liveness_timeout_s + 60.0
        )
        engine.run(until=10.0 + master.liveness_timeout_s + 1.0)
        assert master.workers_declared_lost == 1
        assert master.tasks_requeued == 1
        assert t_long.attempts == 1  # a declared loss burns a retry
        assert "w1" not in master.workers
        # The other worker's run was untouched.
        assert t_other.id in w2.runs
        assert t_other.attempts == 0


class TestPartitionResultDelivery:
    def test_held_result_delivered_after_heal(self, engine, master):
        """The task finishes during the partition; the output is held
        and delivered on the first post-heal poll, completing the task
        exactly once with no retry burned."""
        w = add_worker(engine, master)
        task = make_task(execute_s=20.0)
        master.submit(task)
        engine.run(until=5.0)
        begin_partition(engine, master, w, duration_s=40.0)
        engine.run(until=40.0)  # finishes ~t=26 while partitioned
        assert task.id not in w.runs
        assert len(master.done) == 0  # result held, not delivered
        engine.run(until=80.0)
        assert len(master.done) == 1
        assert task.state is TaskState.DONE
        assert sum(1 for t in master.done if t.id == task.id) == 1

    def test_drain_during_partition_defers_stop_until_delivery(self, engine, master):
        """Scale-down drains a partitioned worker whose runs finished
        locally: the worker must NOT stop (it cannot reach the master,
        and its held results would die with it) — it stays up, heals,
        delivers, then completes the drain."""
        w = add_worker(engine, master)
        task = make_task(execute_s=20.0)
        master.submit(task)
        engine.run(until=5.0)
        begin_partition(engine, master, w, duration_s=60.0)
        engine.run(until=40.0)  # task finished locally, result held
        w.drain()
        assert w.state is WorkerState.DRAINING  # not STOPPED
        assert "w1" in master.workers
        engine.run(until=120.0)
        assert w.state is WorkerState.STOPPED  # drain completed post-heal
        assert len(master.done) == 1
        assert task.state is TaskState.DONE

    def test_kill_during_partition_requeues_at_liveness_expiry(self, engine, master):
        """The partitioned worker's pod dies mid-partition: it cannot
        report the loss, so the master's liveness expiry must requeue
        the tasks — including ones whose results were held — even though
        ``kill()`` already cleared the worker's run table."""
        w = add_worker(engine, master)
        t_run = make_task(execute_s=500.0)
        t_held = make_task(execute_s=15.0)
        master.submit_many([t_held, t_run])
        engine.run(until=5.0)
        begin_partition(
            engine, master, w, duration_s=master.liveness_timeout_s + 100.0
        )
        engine.run(until=30.0)  # t_held finished locally; t_run in flight
        assert t_held.id in {t.id for t in w._held_results}
        w.kill()
        assert not w.runs
        assert w.unfinished_task_ids() == {t_run.id, t_held.id}
        engine.run(until=5.0 + master.liveness_timeout_s + 1.0)
        assert master.workers_declared_lost == 1
        assert master.tasks_requeued == 2
        assert not master.running  # nothing stranded
        # A replacement worker finishes both.
        add_worker(engine, master, "w2")
        engine.run(until=1200.0)
        assert t_run.state is TaskState.DONE
        assert t_held.state is TaskState.DONE


class TestPartitionedMigration:
    """Checkpoint shipped, link partitioned before the resume-ack: the
    worker holds the checkpoint like a held result and the at-most-once
    guard decides its fate on reconnect."""

    SPEC = CheckpointSpec(interval_s=10.0, cost_s=1.0, size_mb=10.0)

    def make_ckpt_task(self, execute_s=200.0):
        return Task(
            "c",
            execute_s=execute_s,
            footprint=FOOT,
            declared=FOOT,
            checkpoint=self.SPEC,
        )

    def start_migration(self, engine, master, w, task):
        master.submit(task)
        engine.run(until=30.0)
        assert task.state is TaskState.RUNNING
        engine.run(until=task.start_time + 25.0)  # two intervals banked
        assert w.migrate_out(task)

    def test_checkpoint_held_through_partition_resumes_exactly_once(
        self, engine, master
    ):
        """Partition strikes between cut and resume-ack, heals inside
        the liveness window: the held checkpoint delivers on reconnect
        and the task resumes exactly once with its banked progress."""
        w = add_worker(engine, master)
        task = self.make_ckpt_task()
        self.start_migration(engine, master, w, task)
        begin_partition(engine, master, w, duration_s=30.0)
        engine.run(until=engine.now + 5.0)  # ship lands while detached
        assert [t.id for t, _p, _l, _s in w._held_migrations] == [task.id]
        assert master.migrations_accepted == 0
        engine.run(until=engine.now + 60.0)  # heal + reconnect poll
        assert not w.partitioned
        assert master.migrations_accepted == 1
        assert not w._held_migrations
        assert task.progress_s == 20.0
        assert task.attempts == 0  # no retry burned across the partition
        engine.run(until=engine.now + 300.0)
        assert task.state is TaskState.DONE
        assert sum(1 for t in master.done if t.id == task.id) == 1

    def test_held_checkpoint_dropped_after_liveness_requeue(self, engine, master):
        """The partition outlives the liveness window: the master
        requeues the task (attempt burned) and re-runs it elsewhere; the
        healed worker's held checkpoint must be dropped as stale — a
        resume now would double-run the task."""
        w1 = add_worker(engine, master)
        task = self.make_ckpt_task(execute_s=400.0)
        self.start_migration(engine, master, w1, task)
        begin_partition(
            engine, master, w1, duration_s=master.liveness_timeout_s + 60.0
        )
        engine.run(until=engine.now + 5.0)
        assert [t.id for t, _p, _l, _s in w1._held_migrations] == [task.id]
        add_worker(engine, master, "w2")
        engine.run(until=engine.now + master.liveness_timeout_s + 5.0)
        assert master.workers_declared_lost == 1
        assert task.attempts == 1  # liveness expiry burned a retry
        engine.run(until=engine.now + 120.0)  # heal + reconnect delivery
        assert master.migrations_stale == 1
        assert master.migrations_accepted == 0
        assert task.progress_s == 0.0  # the stale snapshot banked nothing
        engine.run(until=engine.now + 600.0)
        assert task.state is TaskState.DONE
        assert sum(1 for t in master.done if t.id == task.id) == 1


class TestStaleRunSuppression:
    def test_heal_does_not_readopt_task_redispatched_elsewhere(self, engine, master):
        """The partitioned worker's task is declared lost and restarted
        on another worker; when the original heals, its stale local run
        must be cancelled, not adopted — adoption would double-execute
        and later corrupt the done ledger."""
        w1 = add_worker(engine, master, "w1")
        task = make_task(execute_s=300.0)
        master.submit(task)
        engine.run(until=5.0)
        begin_partition(
            engine, master, w1, duration_s=master.liveness_timeout_s + 30.0
        )
        # Declared lost at ~t=95; a fresh worker picks the requeue up.
        add_worker(engine, master, "w2")
        engine.run(until=5.0 + master.liveness_timeout_s + 5.0)
        assert master.workers_declared_lost == 1
        w2 = master.workers["w2"]
        assert task.id in w2.runs
        # Heal: w1 reconnects with its stale copy still executing.
        engine.run(until=5.0 + master.liveness_timeout_s + 60.0)
        assert w1.reconnects == 1
        assert task.id not in w1.runs  # stale copy cancelled
        assert task.id in w2.runs
        engine.run(until=1000.0)
        assert task.state is TaskState.DONE
        assert sum(1 for t in master.done if t.id == task.id) == 1


class TestOrphanedRun:
    """A worker declared lost behind a partition still executes its copy
    of the task, but the requeue handed the shared ``Task`` to a new
    holder: the orphan's transitions must stay on its own run."""

    def orphan_and_holder(self, engine, master):
        a = add_worker(engine, master, "a")
        task = make_task(execute_s=2000.0)
        master.submit(task)
        engine.run(until=5.0)
        assert task.id in a.runs
        begin_partition(engine, master, a, duration_s=5000.0)
        b = add_worker(engine, master, "b")
        engine.run(until=5.0 + master.liveness_timeout_s + 5.0)
        assert master.workers_declared_lost == 1
        assert task.id in a.runs and task.id in b.runs
        assert task.state is TaskState.RUNNING
        assert master.cores_in_use() == 1
        return a, b, task

    def assert_held_by(self, master, b, task):
        assert task.state is TaskState.RUNNING
        assert master.cores_in_use() == 1
        assert b.cpu_usage() == 1.0

    def assert_completes_once_on(self, engine, master, b, task):
        engine.run(until=6000.0)
        assert task.state is TaskState.DONE
        assert [t.id for t in master.done].count(task.id) == 1
        assert task.attempts == 1
        assert task.result.worker_name == b.name

    def test_orphan_kill_leaves_the_new_holder_running(self, engine, master):
        a, b, task = self.orphan_and_holder(engine, master)
        a.kill()
        self.assert_held_by(master, b, task)
        self.assert_completes_once_on(engine, master, b, task)

    def test_orphan_finishing_its_copy_leaves_the_new_holder_running(
        self, engine, master
    ):
        a, b, task = self.orphan_and_holder(engine, master)
        # The orphan's copy started first and ends first; it holds the
        # result behind the partition.
        engine.run(until=2050.0)
        assert task.id not in a.runs and a.tasks_completed == 1
        self.assert_held_by(master, b, task)
        self.assert_completes_once_on(engine, master, b, task)
