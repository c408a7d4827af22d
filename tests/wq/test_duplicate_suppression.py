"""Duplicate result deliveries are suppressed idempotently.

The master keys accepted results by ``(task_id, attempt)``: a redelivery
— a speculative pair both finishing, a detached worker replaying its
held outputs after the master already re-ran the task — must bump
category statistics and completion callbacks exactly once.
"""

from __future__ import annotations

from repro.cluster.resources import ResourceVector
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.faults import SpeculationConfig
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker

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


class TestDuplicateSuppression:
    def test_redelivery_of_accepted_result_is_dropped(self, engine):
        master = make_master(engine)
        worker = Worker(engine, master, "w1", BIG)
        seen = []
        master.on_complete(lambda t, r: seen.append(t.id))
        task = make_task()
        master.submit(task)
        engine.run(until=30.0)
        assert task.state is TaskState.DONE
        # The same worker replays the delivery (e.g. held outputs after a
        # reconnect that raced the first delivery).
        master.task_finished(worker, task)
        assert master.duplicate_results == 1
        assert len(master.done) == 1
        assert len(master.monitor.results) == 1
        assert seen == [task.id]

    def test_speculative_pair_bumps_stats_once(self, engine):
        cfg = SpeculationConfig(
            check_period_s=5.0, slowdown_factor=2.0, min_samples=3, min_age_s=5.0
        )
        master = make_master(engine, speculation=cfg)
        Worker(engine, master, "w1", BIG)
        Worker(engine, master, "w2", BIG)
        warmup = [make_task(execute_s=10.0) for _ in range(3)]
        master.submit_many(warmup)
        engine.run(until=engine.now + 60.0)
        baseline_results = len(master.monitor.results)
        # Slow enough to clone (>2x the ~10 s mean), fast enough that the
        # original still finishes. A master outage after the clone
        # launches lets BOTH attempts complete and buffer — resume then
        # delivers the pair back to back.
        original = make_task(execute_s=28.0)
        master.submit(original)
        engine.run(until=engine.now + 22.0)
        assert master.tasks_speculated == 1
        master.pause()
        engine.run(until=engine.now + 15.0)
        assert len(master._buffered_completions) == 2
        master.resume()
        engine.run(until=engine.now + 5.0)
        assert original.state is TaskState.DONE
        assert master.done.count(original) == 1
        # Exactly one result recorded for the pair, whichever copy won.
        assert len(master.monitor.results) == baseline_results + 1
        stats = master.monitor.category("c")
        assert stats is not None and stats.count == 4

    def test_straggler_clone_win_records_once(self, engine):
        cfg = SpeculationConfig(
            check_period_s=5.0, slowdown_factor=2.0, min_samples=3, min_age_s=5.0
        )
        master = make_master(engine, speculation=cfg)
        Worker(engine, master, "w1", BIG)
        Worker(engine, master, "w2", BIG)
        warmup = [make_task(execute_s=10.0) for _ in range(3)]
        master.submit_many(warmup)
        engine.run(until=engine.now + 60.0)
        straggler = make_task(execute_s=500.0)
        master.submit(straggler)
        engine.run(until=engine.now + 200.0)
        assert master.speculation_wins == 1
        assert straggler.state is TaskState.DONE
        assert master.done.count(straggler) == 1
        stats = master.monitor.category("c")
        assert stats is not None and stats.count == 4
        # The accepted (task, attempt) key blocks any late redelivery.
        assert (straggler.id, straggler.result.attempts) in master._delivered
