"""Unit tests for master crash recovery via the transaction journal."""

from __future__ import annotations

from repro.cluster.resources import ResourceVector
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.journal import TransactionJournal
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker, WorkerState

FOOT = ResourceVector(1, 512, 128)
BIG = ResourceVector(4, 4096, 4096)


def make_task(execute_s=10.0, category="c"):
    return Task(category, execute_s=execute_s, footprint=FOOT, declared=FOOT)


def make_master(engine, **knobs):
    return Master(
        engine,
        Link(engine, 200.0),
        config=DispatchConfig(**knobs),
        estimator=DeclaredResourceEstimator(),
    )


class TestJournalReplay:
    def test_replay_reconstructs_ready_queue(self, engine):
        journal = TransactionJournal()
        tasks = [make_task() for _ in range(3)]
        for t in tasks:
            journal.record_submit(0.0, t)
        journal.record_dispatch(1.0, tasks[0])
        state = journal.replay()
        assert state.ready == tasks[1:]
        assert list(state.unclaimed.values()) == [tasks[0]]
        assert state.submitted == 3

    def test_replay_retry_moves_to_queue_front(self, engine):
        journal = TransactionJournal()
        a, b = make_task(), make_task()
        journal.record_submit(0.0, a)
        journal.record_submit(0.0, b)
        journal.record_dispatch(1.0, a)
        a.attempts = 1
        journal.record_retry(2.0, a)
        state = journal.replay()
        assert state.ready == [a, b]
        assert not state.unclaimed
        assert state.attempts[a.id] == 1

    def test_cold_replay_only_honours_submits(self, engine):
        journal = TransactionJournal()
        tasks = [make_task() for _ in range(2)]
        for t in tasks:
            journal.record_submit(0.0, t)
        journal.record_dispatch(1.0, tasks[0])
        state = journal.replay(completions=False)
        assert state.ready == tasks
        assert not state.unclaimed
        assert not state.completions

    def test_failover_out_after_an_earlier_failover_in_drops_the_task(
        self, engine
    ):
        """A shard that adopted a task (FAILOVER_IN) and later lost it to
        a failover (FAILOVER_OUT) replays without it: the earlier IN is a
        different hand-off and must not excuse the later OUT."""
        journal = TransactionJournal()
        task = make_task()
        journal.record_failover_in(10.0, task, placement="ready")
        journal.record_dispatch(10.0, task)
        journal.record_failover_out(50.0, task)
        state = journal.replay()
        assert not state.ready and not state.unclaimed
        assert state.handed_off == {task.id}

    def test_same_instant_hand_off_folds_in_either_order(self, engine):
        """A merged log may fold the destination's FAILOVER_IN before the
        source's FAILOVER_OUT of the same hand-off; either order leaves
        the task where the destination put it."""
        for in_first in (True, False):
            journal = TransactionJournal()
            task = make_task()
            journal.record_submit(0.0, task)
            if in_first:
                journal.record_failover_in(10.0, task, placement="ready")
                journal.record_failover_out(10.0, task)
            else:
                journal.record_failover_out(10.0, task)
                journal.record_failover_in(10.0, task, placement="ready")
            state = journal.replay()
            assert state.ready == [task]
            assert not state.handed_off


class TestCrashRecovery:
    def run_partial(self, engine, master, n=6, until=25.0):
        Worker(engine, master, "w1", ResourceVector(2, 4096, 4096))
        tasks = [make_task(execute_s=10.0) for _ in range(n)]
        master.submit_many(tasks)
        engine.run(until=until)
        assert 0 < len(master.done) < n
        return tasks

    def test_crash_marks_unavailable_and_wipes_state(self, engine):
        master = make_master(engine)
        tasks = self.run_partial(engine, master)
        master.crash()
        assert master.crashed
        assert not master.available
        assert master.crashes == 1
        assert not master.queue and not master.running and not master.done
        assert not master.all_done  # a crashed master is not "finished"
        master.crash()  # idempotent
        assert master.crashes == 1
        del tasks

    def test_journal_recovery_never_reruns_completed_work(self, engine):
        master = make_master(engine)
        tasks = self.run_partial(engine, master)
        done_before = len(master.done)
        master.crash(restart_delay_s=5.0)
        engine.run(until=300.0)
        assert all(t.state is TaskState.DONE for t in tasks)
        assert len(master.done) == len(tasks)
        assert master.tasks_rerun == 0
        # The monitor was rebuilt from the journal: one result per task.
        assert len(master.monitor.results) == len(tasks)
        assert len(master.done) >= done_before
        assert master.all_done
        assert master.last_crash_at == 25.0
        assert master.last_recovered_at == 30.0
        assert master.first_completion_after_recovery_at is not None

    def test_workers_reconnect_and_runs_are_adopted(self, engine):
        master = make_master(engine)
        worker = Worker(engine, master, "w1", ResourceVector(2, 4096, 4096))
        tasks = [make_task(execute_s=30.0) for _ in range(2)]
        master.submit_many(tasks)
        engine.run(until=5.0)  # both dispatched and executing
        assert len(worker.runs) == 2
        master.crash(restart_delay_s=4.0)
        engine.run(until=200.0)
        assert worker.reconnects == 1
        assert worker.state is WorkerState.READY
        # The in-flight attempts were adopted, not re-run: each task
        # executed exactly once.
        assert master.tasks_rerun == 0
        assert master.duplicate_results == 0
        assert all(t.state is TaskState.DONE for t in tasks)
        assert all(t.attempts == 0 for t in tasks)

    def test_detached_worker_holds_results_until_reconnect(self, engine):
        master = make_master(engine)
        worker = Worker(engine, master, "w1", ResourceVector(2, 4096, 4096))
        task = make_task(execute_s=10.0)
        master.submit(task)
        engine.run(until=5.0)
        # Long restart: the task finishes while the master is down.
        master.crash(restart_delay_s=50.0)
        engine.run(until=40.0)
        assert task.state is not TaskState.DONE
        assert worker._held_results  # outputs held locally
        engine.run(until=200.0)
        assert task.state is TaskState.DONE
        assert master.tasks_rerun == 0

    def test_grace_window_requeues_tasks_of_dead_workers(self, engine):
        master = make_master(engine, recovery_grace_s=45.0)
        worker = Worker(engine, master, "w1", ResourceVector(2, 4096, 4096))
        task = make_task(execute_s=100.0)
        master.submit(task)
        engine.run(until=5.0)
        master.crash(restart_delay_s=2.0)
        worker.kill()  # died during the outage: never reconnects
        engine.run(until=20.0)
        # Recovered but unclaimed: waiting out the grace window.
        assert task.id in master._unclaimed
        Worker(engine, master, "w2", ResourceVector(2, 4096, 4096))
        engine.run(until=300.0)
        assert task.state is TaskState.DONE
        assert task.attempts == 1  # the lost attempt was charged

    def test_cold_restart_reruns_completed_prefix(self, engine):
        master = make_master(engine, replay_journal=False)
        tasks = self.run_partial(engine, master)
        done_before = len(master.done)
        master.crash(restart_delay_s=5.0)
        engine.run(until=400.0)
        assert all(t.state is TaskState.DONE for t in tasks)
        assert master.tasks_rerun >= done_before
        assert len(master.done) == len(tasks)

    def test_retry_counts_survive_replay(self, engine):
        master = make_master(engine)
        worker = Worker(engine, master, "w1", ResourceVector(2, 4096, 4096))
        task = make_task(execute_s=60.0)
        master.submit(task)
        engine.run(until=5.0)
        worker.kill()  # attempt 1 lost; requeued at the front
        engine.run(until=6.0)
        assert task.attempts == 1
        master.crash(restart_delay_s=2.0)
        engine.run(until=10.0)
        assert task.attempts == 1  # reconstructed from the journal
        assert task in master.queue
