"""Tests for task priorities and the retry/abandon policy."""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker

FOOT = ResourceVector(1, 512, 128)


@pytest.fixture
def master(engine):
    return Master(
        engine,
        Link(engine, 200.0),
        config=DispatchConfig(max_retries=2),
        estimator=DeclaredResourceEstimator(),
    )


def make_task(priority=0, execute_s=10.0):
    return Task("c", execute_s=execute_s, footprint=FOOT, declared=FOOT, priority=priority)


def one_slot_worker(engine, master, name="w1"):
    return Worker(engine, master, name, ResourceVector(1, 4096, 4096))


class TestPriorities:
    def test_higher_priority_dispatched_first(self, engine, master):
        one_slot_worker(engine, master)
        low = make_task(priority=0)
        high = make_task(priority=5)
        master.submit_many([low, high])
        engine.run(until=2.0)
        assert high.state in (TaskState.FETCHING, TaskState.RUNNING)
        assert low.state is TaskState.WAITING

    def test_fifo_within_priority(self, engine, master):
        one_slot_worker(engine, master)
        first = make_task(priority=1)
        second = make_task(priority=1)
        master.submit_many([first, second])
        engine.run(until=2.0)
        assert first.state is not TaskState.WAITING
        assert second.state is TaskState.WAITING

    def test_priorities_order_completion(self, engine, master):
        one_slot_worker(engine, master)
        tasks = [make_task(priority=p, execute_s=5.0) for p in (0, 2, 1)]
        master.submit_many(tasks)
        engine.run(until=100.0)
        finish = {t.priority: t.finish_time for t in tasks}
        assert finish[2] < finish[1] < finish[0]


class TestRetriesAndAbandonment:
    def test_task_abandoned_after_max_retries(self, engine, master):
        task = make_task(execute_s=1000.0)
        master.submit(task)
        abandoned = []
        master.on_abandoned(abandoned.append)
        for i in range(3):  # max_retries=2 → third loss abandons
            w = one_slot_worker(engine, master, f"w{i}")
            engine.run(until=engine.now + 10.0)
            w.kill()
        assert abandoned == [task]
        assert task in master.abandoned
        assert task not in master.waiting_tasks()

    def test_abandoned_task_not_redispatched(self, engine, master):
        task = make_task(execute_s=1000.0)
        master.submit(task)
        for i in range(3):
            w = one_slot_worker(engine, master, f"w{i}")
            engine.run(until=engine.now + 10.0)
            w.kill()
        one_slot_worker(engine, master, "fresh")
        engine.run(until=engine.now + 20.0)
        assert master.stats().running == 0

    def test_retries_below_limit_keep_running(self, engine, master):
        task = make_task(execute_s=30.0)
        master.submit(task)
        w = one_slot_worker(engine, master, "w0")
        engine.run(until=10.0)
        w.kill()
        one_slot_worker(engine, master, "w1")
        engine.run(until=200.0)
        assert task.state is TaskState.DONE
        assert task.attempts == 1
        assert master.abandoned == []

    def test_invalid_max_retries_rejected(self, engine):
        with pytest.raises(ValueError):
            Master(engine, Link(engine, 10.0), config=DispatchConfig(max_retries=-1))

    def test_worker_lost_accounting_at_retry_boundary(self, engine, master):
        """Losses up to max_retries requeue; the loss crossing the
        boundary abandons exactly once — one callback, no re-dispatch."""
        task = make_task(execute_s=1000.0)
        master.submit(task)
        abandoned = []
        master.on_abandoned(abandoned.append)
        # Losses 1 and 2 land exactly on max_retries=2: still requeued.
        for i in range(2):
            w = one_slot_worker(engine, master, f"w{i}")
            engine.run(until=engine.now + 10.0)
            w.kill()
            assert abandoned == []
        assert task.attempts == 2
        assert master.tasks_requeued == 2
        assert task in master.waiting_tasks()
        # Loss 3 crosses the boundary: abandoned exactly once.
        w = one_slot_worker(engine, master, "w2")
        engine.run(until=engine.now + 10.0)
        w.kill()
        assert abandoned == [task]
        assert master.abandoned == [task]
        assert master.tasks_requeued == 2  # the final loss did not requeue
        assert task not in master.waiting_tasks()
        # A fresh worker must not pick the abandoned task back up.
        one_slot_worker(engine, master, "fresh")
        engine.run(until=engine.now + 20.0)
        assert master.stats().running == 0
        assert abandoned == [task]  # callback fired exactly once


class TestWorkflowFailurePropagation:
    def test_manager_marks_failed_on_abandonment(self, engine, master):
        from repro.makeflow.dag import WorkflowGraph
        from repro.makeflow.manager import WorkflowManager

        task = make_task(execute_s=1000.0)
        graph = WorkflowGraph([task])
        manager = WorkflowManager(engine, graph, master)
        manager.start()
        for i in range(3):
            w = one_slot_worker(engine, master, f"w{i}")
            engine.run(until=engine.now + 10.0)
            w.kill()
        assert manager.failed
        assert not manager.done
