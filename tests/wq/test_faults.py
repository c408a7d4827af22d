"""Tests for task-level fault injection, retries, and speculation."""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.sim.rng import RngRegistry
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.faults import (
    CategoryFaultProfile,
    RetryPolicy,
    SpeculationConfig,
    TaskFault,
    TaskFaultModel,
)
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker

FOOT = ResourceVector(1, 512, 128)
BIG = ResourceVector(4, 4096, 4096)


class ScriptedFaultModel:
    """Returns a pre-programmed fault sequence (None = clean attempt)."""

    def __init__(self, faults):
        self.faults = list(faults)

    def draw(self, task, allocation):
        if self.faults:
            return self.faults.pop(0)
        return None


class AlwaysFail:
    def draw(self, task, allocation):
        return TaskFault(kind="transient", at_fraction=1.0)


def make_task(category="c", execute_s=10.0, declared=True):
    return Task(
        category,
        execute_s=execute_s,
        footprint=FOOT,
        declared=FOOT if declared else None,
    )


def make_master(engine, **knobs):
    return Master(
        engine,
        Link(engine, 200.0),
        config=DispatchConfig(**knobs),
        estimator=DeclaredResourceEstimator(),
    )


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_backoff_s=2.0, max_backoff_s=30.0)
        assert policy.backoff_s(1) == 2.0
        assert policy.backoff_s(2) == 4.0
        assert policy.backoff_s(3) == 8.0
        assert policy.backoff_s(10) == 30.0  # capped

    def test_zero_attempts_or_base_means_no_backoff(self):
        assert RetryPolicy(base_backoff_s=2.0).backoff_s(0) == 0.0
        assert RetryPolicy(base_backoff_s=0.0).backoff_s(5) == 0.0

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=-1.0)


class TestCategoryFaultProfile:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            CategoryFaultProfile(failure_prob=1.5)
        with pytest.raises(ValueError):
            CategoryFaultProfile(failure_prob=0.6, exhaustion_prob=0.6)
        with pytest.raises(ValueError):
            CategoryFaultProfile(exhaustion_factor=1.0)

    def test_speculation_config_validated(self):
        with pytest.raises(ValueError):
            SpeculationConfig(check_period_s=0.0)
        with pytest.raises(ValueError):
            SpeculationConfig(slowdown_factor=1.0)


class TestTaskFaultModel:
    def test_zero_probability_consumes_nothing(self):
        model = TaskFaultModel(RngRegistry(1))
        for _ in range(10):
            assert model.draw(make_task(), BIG) is None
        assert model.draws == 0

    def test_certain_transient_failure(self):
        model = TaskFaultModel(
            RngRegistry(1), default=CategoryFaultProfile(failure_prob=1.0)
        )
        fault = model.draw(make_task(), BIG)
        assert fault is not None and fault.kind == "transient"
        assert fault.at_fraction == 1.0

    def test_exhaustion_killed_when_spike_exceeds_allocation(self):
        model = TaskFaultModel(
            RngRegistry(1),
            default=CategoryFaultProfile(exhaustion_prob=1.0, exhaustion_factor=1.5),
        )
        task = make_task()
        fault = model.draw(task, FOOT)  # allocation == footprint < spike
        assert fault is not None and fault.kind == "exhaustion"
        assert fault.escalate_to == FOOT.scale(1.5)
        assert fault.at_fraction == 0.5

    def test_exhaustion_survives_large_allocation(self):
        model = TaskFaultModel(
            RngRegistry(1),
            default=CategoryFaultProfile(exhaustion_prob=1.0, exhaustion_factor=1.5),
        )
        assert model.draw(make_task(), BIG) is None  # spike fits

    def test_exhaustion_survives_after_escalation(self):
        model = TaskFaultModel(
            RngRegistry(1),
            default=CategoryFaultProfile(exhaustion_prob=1.0, exhaustion_factor=1.5),
        )
        task = make_task()
        task.min_allocation = FOOT.scale(1.5)  # escalated retry
        assert model.draw(task, FOOT) is None

    def test_draw_sequence_is_seed_deterministic(self):
        profile = CategoryFaultProfile(failure_prob=0.3, exhaustion_prob=0.3)
        a = TaskFaultModel(RngRegistry(7), default=profile)
        b = TaskFaultModel(RngRegistry(7), default=profile)
        task = make_task()
        seq_a = [a.draw(task, BIG) for _ in range(20)]
        seq_b = [b.draw(task, BIG) for _ in range(20)]
        assert seq_a == seq_b

    def test_per_category_profiles_override_default(self):
        model = TaskFaultModel(
            RngRegistry(1),
            profiles={"flaky": CategoryFaultProfile(failure_prob=1.0)},
            default=CategoryFaultProfile(),
        )
        assert model.draw(make_task("steady"), BIG) is None
        assert model.draw(make_task("flaky"), BIG) is not None


class TestTransientRetries:
    def test_single_failure_retries_after_backoff(self, engine):
        fault = TaskFault(kind="transient", at_fraction=1.0)
        master = make_master(
            engine,
            fault_model=ScriptedFaultModel([fault]),
            retry_policy=RetryPolicy(base_backoff_s=8.0),
        )
        Worker(engine, master, "w1", BIG)
        task = make_task(execute_s=10.0)
        master.submit(task)
        engine.run(until=100.0)
        assert task.state is TaskState.DONE
        assert task.attempts == 1
        assert master.tasks_failed == 1
        assert master.tasks_requeued == 1
        # Attempt 1 burned ~10 s, then 8 s backoff, then a clean 10 s run.
        assert task.finish_time >= 26.0
        assert master.all_done

    def test_always_failing_task_abandoned_at_max_retries(self, engine):
        master = make_master(
            engine,
            fault_model=AlwaysFail(),
            retry_policy=RetryPolicy(base_backoff_s=1.0),
            max_retries=2,
        )
        abandoned = []
        master.on_abandoned(abandoned.append)
        Worker(engine, master, "w1", BIG)
        task = make_task(execute_s=5.0)
        master.submit(task)
        engine.run(until=200.0)
        assert abandoned == [task]
        # Initial attempt + 2 retries, each failing.
        assert master.tasks_failed == 3
        assert master.tasks_requeued == 2
        assert task.state is not TaskState.DONE
        assert master.wasted_core_s == pytest.approx(3 * 5.0 * FOOT.cores)

    def test_waste_charged_for_failed_attempts(self, engine):
        fault = TaskFault(kind="transient", at_fraction=1.0)
        master = make_master(
            engine,
            fault_model=ScriptedFaultModel([fault]),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
        )
        Worker(engine, master, "w1", BIG)
        task = make_task(execute_s=20.0)
        master.submit(task)
        engine.run(until=200.0)
        assert task.state is TaskState.DONE
        assert master.wasted_core_s == pytest.approx(20.0 * FOOT.cores)
        assert master.goodput_core_s() == pytest.approx(20.0 * FOOT.cores)

    def test_backoff_requeue_survives_a_stale_run(self, engine):
        """A worker declared lost behind a partition still executes its
        old attempt on the shared task object. When that stale run moves
        the task's state while a later attempt's failure backs off, the
        backoff must still requeue the task — the master holds no other
        copy of it, so skipping the requeue would strand it."""
        fault = TaskFault(kind="transient", at_fraction=0.1)
        master = make_master(
            engine,
            fault_model=ScriptedFaultModel([None, fault]),
            retry_policy=RetryPolicy(base_backoff_s=30.0),
        )
        wa = Worker(engine, master, "wa", BIG)
        task = make_task(execute_s=120.0)
        master.submit(task)
        engine.run(until=5.0)
        wa.partition()
        master.worker_unreachable(wa)
        engine.run(until=94.0)
        Worker(engine, master, "wb", BIG)  # takes the requeued task
        engine.run(until=150.0)
        assert master.tasks_failed == 1  # attempt 2 failed on wb
        wa.heal()
        engine.run(until=400.0)
        assert task.state is TaskState.DONE
        assert task.result.worker_name == "wb"
        assert master.all_done


class TestExhaustionEscalation:
    def make_exhausting_master(self, engine):
        return make_master(
            engine,
            fault_model=TaskFaultModel(
                RngRegistry(3),
                default=CategoryFaultProfile(
                    exhaustion_prob=1.0, exhaustion_factor=1.5
                ),
            ),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
        )

    def test_killed_then_completes_under_escalated_allocation(self, engine):
        master = self.make_exhausting_master(engine)
        Worker(engine, master, "w1", BIG)
        task = make_task(execute_s=10.0)
        master.submit(task)
        engine.run(until=100.0)
        assert task.state is TaskState.DONE
        assert task.attempts == 1
        assert master.tasks_exhausted == 1
        assert master.escalations == 1
        assert task.min_allocation == FOOT.scale(1.5)
        # The kill landed halfway through: 5 s of one core wasted.
        assert master.wasted_core_s == pytest.approx(5.0 * FOOT.cores)

    def test_escalation_recorded_against_category(self, engine):
        master = self.make_exhausting_master(engine)
        Worker(engine, master, "w1", BIG)
        master.submit(make_task(execute_s=10.0))
        engine.run(until=100.0)
        stats = master.monitor.category("c")
        assert stats is not None
        assert stats.escalations == 1
        assert stats.escalated_floor == FOOT.scale(1.5)
        estimate = master.monitor.resource_estimate("c")
        assert estimate is not None
        assert FOOT.scale(1.5).fits_in(estimate)

    def test_escalated_floor_survives_without_samples(self):
        from repro.wq.monitor import ResourceMonitor

        monitor = ResourceMonitor()
        assert monitor.resource_estimate("c") is None
        monitor.observe_exhaustion("c", FOOT.scale(2.0))
        estimate = monitor.resource_estimate("c")
        assert estimate is not None
        assert FOOT.scale(2.0).fits_in(estimate)
        assert monitor.escalation_count == 1


class TestSpeculation:
    CFG = SpeculationConfig(
        check_period_s=5.0, slowdown_factor=2.0, min_samples=3, min_age_s=5.0
    )

    def make_spec_master(self, engine):
        master = make_master(engine, speculation=self.CFG)
        Worker(engine, master, "w1", BIG)
        Worker(engine, master, "w2", BIG)
        return master

    def warm_up(self, engine, master, n=3):
        tasks = [make_task(execute_s=10.0) for _ in range(n)]
        master.submit_many(tasks)
        engine.run(until=engine.now + 60.0)
        assert all(t.state is TaskState.DONE for t in tasks)

    def test_straggler_clone_wins(self, engine):
        master = self.make_spec_master(engine)
        self.warm_up(engine, master)
        straggler = make_task(execute_s=500.0)
        master.submit(straggler)
        engine.run(until=engine.now + 120.0)
        # The clone ran for the category mean (~10 s) and finished first.
        assert straggler.state is TaskState.DONE
        assert master.tasks_speculated == 1
        assert master.speculation_wins == 1
        assert straggler.finish_time < 200.0  # far sooner than 500 s
        assert master.done.count(straggler) == 1
        # The straggling attempt was cancelled and charged as waste.
        assert master.wasted_core_s > 0
        assert all(not w.runs for w in master.workers.values())
        assert master.all_done

    def test_fast_original_beats_clone(self, engine):
        master = self.make_spec_master(engine)
        self.warm_up(engine, master)
        # Slow enough to trigger speculation (>2x mean), fast enough to
        # beat the clone, which needs ~10 s from its later launch.
        original = make_task(execute_s=28.0)
        master.submit(original)
        engine.run(until=engine.now + 120.0)
        assert original.state is TaskState.DONE
        assert master.tasks_speculated == 1
        assert master.speculation_wins == 0
        assert master.speculation_losses == 1
        assert master.done.count(original) == 1
        assert all(not w.runs for w in master.workers.values())

    def test_no_speculation_while_queue_nonempty(self, engine):
        master = make_master(engine, speculation=self.CFG)
        Worker(engine, master, "w1", ResourceVector(1, 4096, 4096))
        self.warm_up(engine, master)
        # One slot total: the straggler runs while another task waits, so
        # the backup-task rule must hold speculation back.
        straggler = make_task(execute_s=100.0)
        waiting = make_task(execute_s=10.0)
        master.submit(straggler)
        master.submit(waiting)
        engine.run(until=engine.now + 50.0)
        assert master.tasks_speculated == 0

    def test_event_queue_drains_after_completion(self, engine):
        master = self.make_spec_master(engine)
        self.warm_up(engine, master)
        engine.run(until=engine.now + 600.0)
        # The speculation loop must stop itself once the master idles,
        # leaving the event queue empty (drivers detect completion this way).
        assert engine.peek() is None

    def test_speculative_copy_death_does_not_requeue(self, engine):
        master = self.make_spec_master(engine)
        self.warm_up(engine, master)
        straggler = make_task(execute_s=500.0)
        master.submit(straggler)
        # Run until the clone is live, then kill its worker.
        engine.run(until=engine.now + 22.0)
        assert master.tasks_speculated == 1
        clone = master._spec[straggler.id]
        host = master._worker_running(clone.id)
        assert host is not None
        requeued_before = master.tasks_requeued
        host.kill()
        engine.run(until=engine.now + 5.0)
        # The copy died silently: nothing requeued, the original unbothered.
        assert clone.id not in master.running
        assert master.tasks_requeued == requeued_before
        assert straggler.state is TaskState.RUNNING
        assert straggler.id not in master._spec
