"""Checkpoint/restore migration: handshake, at-most-once, policies.

The migration protocol (DESIGN.md §13): a running task pauses, cuts a
snapshot (cost), ships it over the master link, and the master — behind
the same at-most-once guards that protect result delivery — banks the
progress, requeues the task at the queue front without burning an
attempt, and the next dispatch resumes from the banked progress. The
coordinator paces drains under Megaphone's sudden / fluid /
batched-fluid policies and falls back to plain evacuation when a
checkpoint cannot fit the drain deadline.
"""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.faults import SpeculationConfig
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.migration import CheckpointSpec, MigrationConfig, MigrationCoordinator
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker

FOOT = ResourceVector(1, 512, 128)
CAP = ResourceVector(4, 4096, 4096)
SPEC = CheckpointSpec(interval_s=10.0, cost_s=1.0, size_mb=10.0)


def make_master(engine, **knobs):
    return Master(
        engine,
        Link(engine, 100.0),
        config=DispatchConfig(**knobs),
        estimator=DeclaredResourceEstimator(),
    )


def make_task(execute_s=100.0, checkpoint=SPEC, declared=None):
    return Task(
        "c",
        execute_s=execute_s,
        footprint=FOOT,
        declared=declared if declared is not None else FOOT,
        checkpoint=checkpoint,
    )


def run_until_running(engine, task, deadline=30.0):
    while engine.now < deadline and task.state is not TaskState.RUNNING:
        engine.run(until=engine.now + 0.5)
    assert task.state is TaskState.RUNNING
    return task.start_time


class TestCheckpointSpec:
    def test_banked_progress_floors_to_interval(self):
        spec = CheckpointSpec(interval_s=30.0)
        assert spec.banked_progress(0.0) == 0.0
        assert spec.banked_progress(29.9) == 0.0
        assert spec.banked_progress(30.0) == 30.0
        assert spec.banked_progress(75.0) == 60.0

    def test_zero_interval_banks_everything(self):
        spec = CheckpointSpec(interval_s=0.0)
        assert spec.banked_progress(42.5) == 42.5

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointSpec(interval_s=-1.0)
        with pytest.raises(ValueError):
            CheckpointSpec(cost_s=-0.1)
        with pytest.raises(ValueError):
            MigrationConfig(policy="nope")
        with pytest.raises(ValueError):
            MigrationConfig(batch_size=0)
        with pytest.raises(ValueError):
            MigrationConfig(policy_for_reason={"preemption": "bogus"})


class TestHandshake:
    def test_migrate_resumes_with_banked_progress(self, engine):
        """Pause → cut → ship → requeue-with-progress → resume: the task
        re-executes only its unbanked tail, and the journal carries
        CHECKPOINT/MIGRATE_OUT/MIGRATE_IN so replay is bit-faithful."""
        master = make_master(engine)
        w = Worker(engine, master, "w1", CAP, connect_latency=1.0)
        task = make_task(execute_s=100.0)
        master.submit(task)
        start = run_until_running(engine, task)
        engine.run(until=start + 35.0)
        elapsed = engine.now - task.start_time
        banked = SPEC.banked_progress(elapsed)
        assert banked == 30.0
        assert w.migrate_out(task)
        assert task.state is TaskState.MIGRATING
        # Paused: a migrating run burns no CPU while it snapshots.
        assert task.current_cpu_cores() == 0.0
        engine.run(until=engine.now + SPEC.cost_s + 1.0)  # cut + ship
        assert master.migrations_accepted == 1
        assert task.progress_s == banked
        assert task.attempts == 0  # migration is voluntary, no retry burned
        # Only the unbanked tail was charged as waste.
        assert master.wasted_core_s == pytest.approx(
            (elapsed - banked) * FOOT.cores
        )
        # Resume: remaining work is 70 s, not 100 s.
        assert task.remaining_execute_s() == pytest.approx(70.0)
        resumed_at = engine.now
        engine.run(until=resumed_at + 85.0)
        assert task.state is TaskState.DONE
        assert sum(1 for t in master.done if t.id == task.id) == 1
        ops = [r.op for r in master.journal.records]
        assert "checkpoint" in ops and "migrate_out" in ops and "migrate_in" in ops
        # Replay folds the migration records back exactly: the task is
        # complete, nothing ready/unclaimed, progress banked.
        state = master.journal.replay()
        assert [t.id for t, _ in state.completions] == [task.id]
        assert not state.ready and not state.unclaimed
        assert state.progress[task.id] == banked

    def test_migrate_out_rejects_ineligible_tasks(self, engine):
        master = make_master(engine)
        w = Worker(engine, master, "w1", CAP, connect_latency=1.0)
        plain = make_task(checkpoint=None)
        master.submit(plain)
        run_until_running(engine, plain)
        assert not w.migrate_out(plain)  # no checkpoint spec
        stranger = make_task()
        assert not w.migrate_out(stranger)  # not on this worker

    def test_nothing_banked_before_first_interval(self, engine):
        """A snapshot cut before the first checkpoint interval banks
        zero progress and charges the whole elapsed time as waste."""
        master = make_master(engine)
        w = Worker(engine, master, "w1", CAP, connect_latency=1.0)
        task = make_task(execute_s=100.0)
        master.submit(task)
        start = run_until_running(engine, task)
        engine.run(until=start + 5.0)  # < interval_s
        assert w.migrate_out(task)
        engine.run(until=engine.now + SPEC.cost_s + 1.0)
        assert master.migrations_accepted == 1
        assert task.progress_s == 0.0
        assert master.wasted_core_s == pytest.approx(5.0 * FOOT.cores)

    def test_kill_mid_snapshot_degrades_to_worker_lost(self, engine):
        """The worker dies between cut and ship: the checkpoint is lost
        and the plain worker-lost path requeues the task from its last
        accepted progress (zero here) with an attempt burned."""
        master = make_master(engine)
        w = Worker(engine, master, "w1", CAP, connect_latency=1.0)
        task = make_task(execute_s=100.0)
        master.submit(task)
        start = run_until_running(engine, task)
        engine.run(until=start + 15.0)
        assert w.migrate_out(task)
        w.kill()
        assert master.migrations_accepted == 0
        assert task.progress_s == 0.0
        assert task.attempts == 1  # a kill is a failure, not a migration
        Worker(engine, master, "w2", CAP, connect_latency=1.0)
        engine.run(until=engine.now + 150.0)
        assert task.state is TaskState.DONE
        assert sum(1 for t in master.done if t.id == task.id) == 1


class TestAtMostOnce:
    def test_duplicate_delivery_dropped_as_stale(self, engine):
        """Replaying an already-accepted checkpoint must not double-bank
        or double-requeue: the task is no longer canonical on the
        delivering worker."""
        master = make_master(engine)
        w = Worker(engine, master, "w1", CAP, connect_latency=1.0)
        task = make_task(execute_s=100.0)
        master.submit(task)
        start = run_until_running(engine, task)
        engine.run(until=start + 12.0)
        assert w.migrate_out(task)
        engine.run(until=engine.now + SPEC.cost_s + 1.0)
        assert master.migrations_accepted == 1
        records_before = len(master.journal)
        assert not master.migration_arrived(w, task, 50.0, 0.0)
        assert master.migrations_stale == 1
        assert task.progress_s == 10.0  # untouched by the duplicate
        assert len(master.journal) == records_before

    def test_checkpoint_from_superseded_attempt_dropped(self, engine):
        """The task was re-dispatched to another worker; a late
        checkpoint from the original attempt trips the
        ``_running_elsewhere`` guard and must not unseat the live run."""
        master = make_master(engine)
        w1 = Worker(engine, master, "w1", CAP, connect_latency=1.0)
        task = make_task(execute_s=100.0)
        master.submit(task)
        start = run_until_running(engine, task)
        engine.run(until=start + 12.0)
        assert w1.migrate_out(task)
        engine.run(until=engine.now + SPEC.cost_s + 1.0)
        assert master.migrations_accepted == 1
        # The task resumed (same worker — it never drained).
        run_until_running(engine, task, deadline=engine.now + 30.0)
        host = next(w for w in master.workers.values() if task.id in w.runs)
        w_other = Worker(engine, master, "w_other", CAP, connect_latency=1.0)
        engine.run(until=engine.now + 2.0)
        assert not master.migration_arrived(w_other, task, 90.0, 0.0)
        assert master.migrations_stale == 1
        assert task.id in host.runs  # live run untouched
        engine.run(until=engine.now + 150.0)
        assert sum(1 for t in master.done if t.id == task.id) == 1


class TestSpeculationInterplay:
    CFG = SpeculationConfig(
        check_period_s=5.0, slowdown_factor=2.0, min_samples=3, min_age_s=5.0
    )

    def test_accepted_migration_cancels_speculative_clone(self, engine):
        """Satellite regression: a live speculative clone of a migrating
        task must die when the checkpoint is accepted — otherwise
        first-completion-wins lets the clone complete the task while the
        resumed attempt re-runs it (double completion)."""
        master = make_master(engine, speculation=self.CFG)
        Worker(engine, master, "w1", CAP, connect_latency=1.0)
        Worker(engine, master, "w2", CAP, connect_latency=1.0)
        warm = [make_task(execute_s=10.0, checkpoint=None) for _ in range(3)]
        master.submit_many(warm)
        engine.run(until=engine.now + 60.0)
        assert all(t.state is TaskState.DONE for t in warm)
        straggler = make_task(execute_s=500.0, checkpoint=CheckpointSpec(5.0, 1.0, 10.0))
        master.submit(straggler)
        deadline = engine.now + 120.0
        while engine.now < deadline and master.tasks_speculated == 0:
            engine.run(until=engine.now + 1.0)
        assert master.tasks_speculated == 1
        assert straggler.id in master._spec
        host = next(w for w in master.workers.values() if straggler.id in w.runs)
        assert host.migrate_out(straggler)
        engine.run(until=engine.now + 2.5)  # cut (1 s) + ship (~0.1 s)
        assert master.migrations_accepted == 1
        # The clone was cancelled with the acceptance.
        assert straggler.id not in master._spec
        assert master.speculation_wins == 0
        engine.run(until=engine.now + 600.0)
        assert straggler.state is TaskState.DONE
        assert sum(1 for t in master.done if t.id == straggler.id) == 1
        assert straggler.progress_s > 0  # it really did resume from a snapshot


class TestCoordinatorPolicies:
    def setup_drain(self, engine, n_tasks=3, config=None, execute_s=200.0):
        master = make_master(engine)
        w = Worker(engine, master, "w1", CAP, connect_latency=1.0)
        coordinator = MigrationCoordinator(engine, master, config)
        tasks = [make_task(execute_s=execute_s) for _ in range(n_tasks)]
        master.submit_many(tasks)
        for task in tasks:
            run_until_running(engine, task)
        engine.run(until=engine.now + 15.0)  # everyone past one interval
        return master, w, coordinator, tasks

    def migrating(self, tasks):
        return [t for t in tasks if t.state is TaskState.MIGRATING]

    def test_sudden_snapshots_everything_at_once(self, engine):
        master, w, coord, tasks = self.setup_drain(
            engine, config=MigrationConfig(policy="sudden")
        )
        assert coord.drain_worker(w, reason="scale_down") == 3
        assert len(self.migrating(tasks)) == 3
        engine.run(until=engine.now + 30.0)
        assert coord.migrations_completed == 3
        assert master.migrations_accepted == 3

    def test_fluid_snapshots_one_at_a_time(self, engine):
        master, w, coord, tasks = self.setup_drain(
            engine, config=MigrationConfig(policy="fluid")
        )
        assert coord.drain_worker(w, reason="scale_down") == 3
        assert len(self.migrating(tasks)) == 1
        engine.run(until=engine.now + 30.0)
        assert coord.migrations_completed == 3

    def test_batched_fluid_snapshots_batch_size(self, engine):
        master, w, coord, tasks = self.setup_drain(
            engine, config=MigrationConfig(policy="batched-fluid", batch_size=2)
        )
        assert coord.drain_worker(w, reason="scale_down") == 3
        assert len(self.migrating(tasks)) == 2
        engine.run(until=engine.now + 30.0)
        assert coord.migrations_completed == 3

    def test_policy_for_reason_overrides_default(self, engine):
        config = MigrationConfig(
            policy="fluid", policy_for_reason={"preemption": "sudden"}
        )
        master, w, coord, tasks = self.setup_drain(engine, config=config)
        assert coord.drain_worker(w, reason="preemption") == 3
        assert len(self.migrating(tasks)) == 3  # sudden, not fluid

    def test_deadline_too_short_falls_back_to_evacuation(self, engine):
        """When the estimated snapshot+ship time exceeds the remaining
        notice, the coordinator must not start a doomed checkpoint —
        the tasks requeue from scratch instead (kill-and-requeue)."""
        master, w, coord, tasks = self.setup_drain(engine)
        # Budget below even one checkpoint's estimate.
        assert coord.drain_worker(w, reason="preemption", deadline_s=0.5) == 0
        assert coord.migration_fallbacks == 3
        assert master.tasks_evacuated == 3
        assert master.migrations_accepted == 0
        assert all(t.progress_s == 0.0 for t in tasks)

    def test_fluid_budget_accounts_for_queueing_ahead(self, engine):
        """Fluid pacing ships sequentially, so the budget check charges
        each task for everything queued ahead: a deadline that fits one
        checkpoint but not three migrates one and evacuates two."""
        config = MigrationConfig(policy="fluid", deadline_margin=1.0)
        master, w, coord, tasks = self.setup_drain(engine, config=config)
        estimate = coord.estimate_checkpoint_s(tasks[0])
        assert coord.drain_worker(
            w, reason="scale_down", deadline_s=estimate * 1.5
        ) == 1
        assert coord.migration_fallbacks == 2
        assert master.tasks_evacuated == 2

    def test_worker_death_mid_drain_aborts_cleanly(self, engine):
        master, w, coord, tasks = self.setup_drain(
            engine, config=MigrationConfig(policy="fluid")
        )
        assert coord.drain_worker(w, reason="scale_down") == 3
        w.kill()
        engine.run(until=engine.now + 30.0)
        # Nothing stuck: the drain record is gone and the worker-lost
        # path owns the requeue (attempts burned, no double resume).
        assert not coord._drains
        assert coord.migrations_completed == 0
        Worker(engine, master, "w2", CAP, connect_latency=1.0)
        engine.run(until=engine.now + 800.0)
        for task in tasks:
            assert task.state is TaskState.DONE
            assert sum(1 for t in master.done if t.id == task.id) == 1


class TestEvacuationOrder:
    def test_same_tick_multi_worker_evacuation_preserves_submit_order(
        self, engine
    ):
        """Satellite regression: when several workers evacuate in the
        same tick, the requeue must come out in submit (seq) order, not
        per-worker arrival order — and must match what journal replay
        reconstructs, record for record."""
        master = make_master(engine)
        small = ResourceVector(2, 4096, 4096)
        w1 = Worker(engine, master, "w1", small, connect_latency=1.0)
        w2 = Worker(engine, master, "w2", small, connect_latency=2.0)
        tasks = [make_task(execute_s=300.0) for _ in range(4)]
        master.submit_many(tasks)
        engine.run(until=30.0)
        placement = {
            t.id: next(w for w in (w1, w2) if t.id in w.runs) for t in tasks
        }
        assert {w1, w2} == set(placement.values())  # spread across both
        # Evacuate both workers' runs in one tick, workers interleaved
        # in worst-case (descending-id-last) order.
        pairs = sorted(
            ((placement[t.id], t) for t in tasks), key=lambda p: -p[1].id
        )
        requeued = master.evacuate(pairs)
        assert len(requeued) == 4
        queue_ids = [t.id for t in master.queue]
        assert queue_ids == sorted(t.id for t in tasks)  # submit order
        replayed = master.journal.replay()
        assert [t.id for t in replayed.ready] == queue_ids
        assert all(t.attempts == 0 for t in tasks)  # evacuation burns none


class TestReplayBitFidelity:
    def test_same_seeded_run_digests_equal_with_migrations(self, engine):
        """Two identical runs including a mid-flight migration produce
        bit-identical journals (digest equality), and replay agrees with
        the live ledgers."""

        def one_run():
            from repro.sim.engine import Engine

            eng = Engine()
            master = make_master(eng)
            w = Worker(eng, master, "w1", CAP, connect_latency=1.0)
            tasks = [make_task(execute_s=60.0) for _ in range(3)]
            master.submit_many(tasks)
            eng.run(until=25.0)
            for task in tasks:
                if task.state is TaskState.RUNNING:
                    w.migrate_out(task)
            eng.run(until=400.0)
            assert all(t.state is TaskState.DONE for t in tasks)
            state = master.journal.replay()
            assert [t.id for t, _ in state.completions] == [
                t.id for t in master.done
            ]
            assert not state.ready and not state.unclaimed
            return master.journal.digest()

        assert one_run() == one_run()
