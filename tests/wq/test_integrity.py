"""End-to-end result integrity: verification, quarantine, poison tasks.

The integrity layer (DESIGN.md §14): every delivered result and shipped
checkpoint carries a content digest; a corrupted result never reaches
COMPLETE — it burns an attempt and retries under the normal backoff
policy — and a corrupted checkpoint is discarded, the task resuming
from its last good banked progress. The per-worker health ledger turns
verification failures into quarantine (black-hole workers) or poison
verdicts (bad inputs), and the journal replays it all bit-faithfully.
"""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.sim.rng import RngRegistry
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.faults import (
    BlackHoleProfile,
    RetryPolicy,
    SpeculationConfig,
    TaskFault,
    ValueFaultModel,
    ValueFaultProfile,
)
from repro.wq.health import HealthConfig, WorkerHealth
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.migration import CheckpointSpec
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker

FOOT = ResourceVector(1, 512, 128)
BIG = ResourceVector(4, 4096, 4096)
CKPT = CheckpointSpec(interval_s=10.0, cost_s=1.0, size_mb=10.0)


class ScriptedValueFaults:
    """Pre-programmed corruption draws, optionally per-category."""

    def __init__(self, result=(), checkpoint=(), category=None):
        self.result = list(result)
        self.checkpoint = list(checkpoint)
        self.category = category

    def _pop(self, seq, task):
        if self.category is not None and task.category != self.category:
            return False
        return seq.pop(0) if seq else False

    def draw_result_corruption(self, task):
        return self._pop(self.result, task)

    def draw_checkpoint_corruption(self, task):
        return self._pop(self.checkpoint, task)


class FailOnce:
    """One transient failure at completion, then clean attempts."""

    def __init__(self):
        self.armed = True

    def draw(self, task, allocation):
        if self.armed:
            self.armed = False
            return TaskFault(kind="transient", at_fraction=1.0)
        return None


class FailCategory:
    """Every attempt of one category fails at completion (slowly)."""

    def __init__(self, category):
        self.category = category

    def draw(self, task, allocation):
        if task.category == self.category:
            return TaskFault(kind="transient", at_fraction=1.0)
        return None


def make_task(category="c", execute_s=10.0, checkpoint=None):
    return Task(
        category,
        execute_s=execute_s,
        footprint=FOOT,
        declared=FOOT,
        checkpoint=checkpoint,
    )


def make_master(engine, **knobs):
    return Master(
        engine,
        Link(engine, 200.0),
        config=DispatchConfig(**knobs),
        estimator=DeclaredResourceEstimator(),
    )


def run_until_running(engine, task, deadline=30.0):
    while engine.now < deadline and task.state is not TaskState.RUNNING:
        engine.run(until=engine.now + 0.5)
    assert task.state is TaskState.RUNNING
    return task.start_time


class TestValueFaultModel:
    def test_zero_probability_consumes_no_variates(self):
        model = ValueFaultModel(RngRegistry(1))
        task = make_task()
        for _ in range(10):
            assert not model.draw_result_corruption(task)
            assert not model.draw_checkpoint_corruption(task)
        assert model.draws == 0

    def test_certain_corruption(self):
        model = ValueFaultModel(
            RngRegistry(1),
            default=ValueFaultProfile(
                result_corruption_prob=1.0, checkpoint_corruption_prob=1.0
            ),
        )
        assert model.draw_result_corruption(make_task())
        assert model.draw_checkpoint_corruption(make_task())

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ValueFaultProfile(result_corruption_prob=1.5)
        with pytest.raises(ValueError):
            ValueFaultProfile(checkpoint_corruption_prob=-0.1)


class TestResultVerification:
    def test_corrupted_result_retries_after_backoff(self, engine):
        """A verify-fail burns an attempt and waits out the same backoff
        a transient failure would."""
        master = make_master(
            engine,
            value_faults=ScriptedValueFaults(result=[True]),
            retry_policy=RetryPolicy(base_backoff_s=8.0),
        )
        Worker(engine, master, "w1", BIG)
        task = make_task(execute_s=10.0)
        master.submit(task)
        engine.run(until=100.0)
        assert task.state is TaskState.DONE
        assert task.attempts == 1
        assert master.verify_fails == 1
        assert master.corrupted_completes == 0
        assert master.done.count(task) == 1
        assert not task.payload_corrupt  # the clean rerun won
        # Attempt 1 burned ~10 s, then 8 s backoff, then a clean 10 s run.
        assert task.finish_time >= 26.0
        assert master.wasted_core_s == pytest.approx(10.0 * FOOT.cores)
        assert master.clean_goodput_core_s() == master.goodput_core_s()
        assert "verify_fail" in [r.op for r in master.journal.records]

    def test_always_corrupt_task_abandoned_at_max_retries(self, engine):
        master = make_master(
            engine,
            value_faults=ScriptedValueFaults(result=[True] * 10),
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
        assert master.verify_fails == 3  # initial attempt + 2 retries
        assert master.corrupted_completes == 0
        assert task.state is not TaskState.DONE
        assert master.wasted_core_s == pytest.approx(3 * 5.0 * FOOT.cores)

    def test_verify_fail_and_transient_share_the_attempt_budget(self, engine):
        """Retry-boundary satellite: attempts consumed by VERIFY_FAIL and
        by transient faults draw down the same max_retries budget."""
        master = make_master(
            engine,
            fault_model=FailOnce(),
            value_faults=ScriptedValueFaults(result=[True]),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
            max_retries=2,
        )
        Worker(engine, master, "w1", BIG)
        task = make_task(execute_s=10.0)
        master.submit(task)
        engine.run(until=200.0)
        # Attempt 1: transient fail. Attempt 2: corrupted. Attempt 3: clean
        # — landing exactly on the max_retries=2 boundary.
        assert task.state is TaskState.DONE
        assert task.attempts == 2
        assert master.tasks_failed == 2
        assert master.verify_fails == 1
        assert master.abandoned == []

    def test_verification_off_lets_corruption_complete(self, engine):
        master = make_master(
            engine,
            value_faults=ScriptedValueFaults(result=[True]),
            verify=False,
        )
        Worker(engine, master, "w1", BIG)
        task = make_task(execute_s=10.0)
        master.submit(task)
        engine.run(until=100.0)
        assert task.state is TaskState.DONE
        assert master.verify_fails == 0
        assert master.corrupted_completes == 1
        assert master.goodput_core_s() == pytest.approx(10.0 * FOOT.cores)
        assert master.clean_goodput_core_s() == pytest.approx(0.0)

    def test_default_master_has_no_integrity_overhead(self, engine):
        """No value faults, no health: the integrity counters stay zero
        and draws consume nothing (bit-identity for existing runs)."""
        master = make_master(engine)
        Worker(engine, master, "w1", BIG)
        task = make_task()
        master.submit(task)
        engine.run(until=50.0)
        assert task.state is TaskState.DONE
        assert master.verify_fails == 0
        assert master.corrupted_completes == 0
        assert master.quarantines == 0
        assert not master.draw_result_corruption(task)
        assert not master.draw_checkpoint_corruption(task)


class TestCheckpointVerification:
    def test_corrupted_checkpoint_discarded_progress_preserved(self, engine):
        """A corrupted snapshot never banks: the task resumes from its
        last *good* banked progress and no attempt is burned."""
        master = make_master(
            engine,
            value_faults=ScriptedValueFaults(checkpoint=[False, True]),
        )
        w = Worker(engine, master, "w1", BIG, connect_latency=1.0)
        task = make_task(execute_s=100.0, checkpoint=CKPT)
        master.submit(task)
        start = run_until_running(engine, task)
        engine.run(until=start + 35.0)
        assert w.migrate_out(task)  # clean checkpoint: banks 30 s
        engine.run(until=engine.now + CKPT.cost_s + 1.0)
        assert master.migrations_accepted == 1
        assert task.progress_s == 30.0
        resumed = run_until_running(engine, task, deadline=engine.now + 30.0)
        engine.run(until=resumed + 35.0)
        assert w.migrate_out(task)  # corrupted checkpoint: discarded
        engine.run(until=engine.now + CKPT.cost_s + 1.0)
        assert master.checkpoint_verify_fails == 1
        assert master.migrations_accepted == 1  # not banked
        assert task.progress_s == 30.0  # last good progress preserved
        assert task.attempts == 0  # discard burns no attempt
        assert not task.checkpoint_corrupt
        ops = [r.op for r in master.journal.records]
        assert "verify_fail" in ops
        engine.run(until=engine.now + 200.0)
        assert task.state is TaskState.DONE
        assert master.done.count(task) == 1


class TestSpeculationVerification:
    CFG = SpeculationConfig(
        check_period_s=5.0, slowdown_factor=2.0, min_samples=3, min_age_s=5.0
    )

    def make_spec_master(self, engine, value_faults):
        master = make_master(
            engine,
            speculation=self.CFG,
            value_faults=value_faults,
            retry_policy=RetryPolicy(base_backoff_s=0.0),
        )
        Worker(engine, master, "w1", BIG)
        Worker(engine, master, "w2", BIG)
        return master

    def warm_up(self, engine, master, n=3):
        tasks = [make_task(execute_s=10.0) for _ in range(n)]
        master.submit_many(tasks)
        engine.run(until=engine.now + 60.0)
        assert all(t.state is TaskState.DONE for t in tasks)

    def test_canonical_verify_fail_cancels_the_clone(self, engine):
        """Satellite regression: when the canonical attempt's result
        fails verification, the in-flight speculative clone is cancelled
        with it — the retry starts from a clean slate."""
        # Draw order: 3 clean warm-ups, then the straggler's corrupted
        # attempt; the clone and the retry fall off the script (clean).
        faults = ScriptedValueFaults(result=[False] * 3 + [True])
        master = self.make_spec_master(engine, faults)
        self.warm_up(engine, master)
        # Slow enough to trigger speculation, fast enough to beat the
        # clone — and its payload is corrupted.
        original = make_task(execute_s=28.0)
        master.submit(original)
        deadline = engine.now + 40.0
        while engine.now < deadline and not master._spec:
            engine.run(until=engine.now + 1.0)
        assert master.tasks_speculated == 1
        assert original.id in master._spec  # clone in flight
        # The original finishes first — corrupted. The verify-fail must
        # take the clone down with it.
        engine.run(until=engine.now + 200.0)
        assert master.verify_fails == 1
        assert master.speculation_losses >= 1  # the cancelled clone
        assert master.corrupted_completes == 0
        assert original.state is TaskState.DONE
        assert master.done.count(original) == 1
        assert not master._spec
        assert all(not w.runs for w in master.workers.values())
        assert master.all_done

    def test_corrupt_clone_win_rejected_original_survives(self, engine):
        """A speculative clone that 'wins' with a corrupted payload is
        rejected; the original keeps running and completes."""
        # 3 clean warm-ups, a clean straggler attempt, a corrupt clone.
        faults = ScriptedValueFaults(result=[False] * 4 + [True])
        master = self.make_spec_master(engine, faults)
        self.warm_up(engine, master)
        straggler = make_task(execute_s=500.0)
        master.submit(straggler)
        engine.run(until=engine.now + 700.0)
        # The corrupt clone's "win" was rejected (a later clean clone or
        # the original itself may still finish the task).
        assert master.tasks_speculated >= 1
        assert master.verify_fails == 1
        assert master.corrupted_completes == 0
        assert straggler.state is TaskState.DONE
        assert master.done.count(straggler) == 1
        assert master.all_done


class TestBlackHoleQuarantine:
    def test_fast_fail_black_hole_quarantined_and_evacuated(self, engine):
        master = make_master(
            engine,
            health=HealthConfig(fast_fail_window=2, probation_after_s=300.0),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
            max_retries=10,
        )
        bh = Worker(engine, master, "bh", BIG, connect_latency=1.0)
        Worker(engine, master, "ok", ResourceVector(1, 4096, 4096), connect_latency=1.0)
        bh.black_hole = BlackHoleProfile(mode="fast-fail", latency_s=1.0)
        tasks = [make_task(execute_s=10.0) for _ in range(6)]
        master.submit_many(tasks)
        engine.run(until=100.0)
        assert bh.quarantined
        assert master.quarantines == 1
        assert master.health.state("bh") is WorkerHealth.QUARANTINED
        assert not bh.runs  # evacuated, nothing re-dispatched to it
        assert all(t.state is TaskState.DONE for t in tasks)
        assert all(master.done.count(t) == 1 for t in tasks)
        # Quarantined supply is dead supply.
        assert master.supplied_cores() == 1
        ops = [r.op for r in master.journal.records]
        assert "quarantine" in ops

    def test_fast_fake_black_hole_caught_by_verification(self, engine):
        """Fast-fake is the nastier mode: the black hole 'completes'
        every task in ~1 s with garbage. Verification + the ledger must
        keep every corrupted result out of COMPLETE."""
        master = make_master(
            engine,
            health=HealthConfig(fast_fail_window=2, probation_after_s=300.0),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
            max_retries=10,
        )
        bh = Worker(engine, master, "bh", BIG, connect_latency=1.0)
        Worker(engine, master, "ok", ResourceVector(1, 4096, 4096), connect_latency=1.0)
        bh.black_hole = BlackHoleProfile(mode="fast-fake", latency_s=1.0)
        tasks = [make_task(execute_s=10.0) for _ in range(6)]
        master.submit_many(tasks)
        engine.run(until=200.0)
        assert master.corrupted_completes == 0
        assert master.verify_fails >= 2
        assert master.quarantines == 1
        assert bh.quarantined
        assert all(t.state is TaskState.DONE for t in tasks)
        assert all(master.done.count(t) == 1 for t in tasks)
        assert master.clean_goodput_core_s() == master.goodput_core_s()

    def test_probation_readmits_a_recovered_worker(self, engine):
        master = make_master(
            engine,
            health=HealthConfig(
                fast_fail_window=2, probation_after_s=60.0, probation_successes=1
            ),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
            max_retries=10,
        )
        bh = Worker(engine, master, "bh", BIG, connect_latency=1.0)
        Worker(engine, master, "ok", ResourceVector(1, 4096, 4096), connect_latency=1.0)
        bh.black_hole = BlackHoleProfile(mode="fast-fail", latency_s=1.0)
        master.submit_many([make_task(execute_s=10.0) for _ in range(4)])
        engine.run(until=30.0)
        assert bh.quarantined
        quarantined_at_least_until = engine.now
        bh.black_hole = None  # the node was repaired while quarantined
        engine.run(until=quarantined_at_least_until + 120.0)
        # Probation re-admitted it and nothing failed since.
        assert not bh.quarantined
        assert master.unquarantines == 1
        late = make_task(execute_s=10.0)
        master.submit(late)
        engine.run(until=engine.now + 60.0)
        assert late.state is TaskState.DONE
        ops = [r.op for r in master.journal.records]
        assert "unquarantine" in ops

    def test_requarantine_on_probation_failure(self, engine):
        """A black hole that stays sick flunks probation on its first
        failure and goes straight back into quarantine."""
        master = make_master(
            engine,
            health=HealthConfig(fast_fail_window=2, probation_after_s=30.0),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
            max_retries=50,
        )
        bh = Worker(engine, master, "bh", BIG, connect_latency=1.0)
        Worker(engine, master, "ok", ResourceVector(1, 4096, 4096), connect_latency=1.0)
        bh.black_hole = BlackHoleProfile(mode="fast-fail", latency_s=1.0)
        tasks = [make_task(execute_s=30.0) for _ in range(8)]
        master.submit_many(tasks)
        engine.run(until=400.0)
        assert master.quarantines >= 2  # initial + at least one relapse
        assert master.unquarantines >= 1
        assert all(t.state is TaskState.DONE for t in tasks)
        # Strict alternation: never two quarantines (or unquarantines)
        # in a row for the same worker.
        state = None
        for rec in master.journal.records:
            if rec.op == "quarantine":
                assert state in (None, "out")
                state = "in"
            elif rec.op == "unquarantine":
                assert state == "in"
                state = "out"


class TestPoisonTaskIsolation:
    def test_poison_task_isolated_after_k_healthy_workers(self, engine):
        master = make_master(
            engine,
            fault_model=FailCategory("bad"),
            health=HealthConfig(poison_k=2, fast_fail_window=100),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
            max_retries=10,
        )
        abandoned = []
        master.on_abandoned(abandoned.append)
        w1 = Worker(engine, master, "w1", BIG, connect_latency=1.0)
        task = make_task(category="bad", execute_s=10.0)
        master.submit(task)
        engine.run(until=15.0)  # attempt 1 failed on then-healthy w1
        assert master.tasks_poisoned == 0
        w1.kill()  # force the retry onto a second distinct worker
        Worker(engine, master, "w2", BIG, connect_latency=1.0)
        engine.run(until=100.0)
        # Two distinct healthy workers failed it: poison verdict.
        assert master.tasks_poisoned == 1
        assert abandoned == [task]
        assert task in master.abandoned
        assert master.escalations >= 1  # exhaustion-style escalation
        assert task.min_allocation is not None
        assert "escalate" in [r.op for r in master.journal.records]
        # Isolated: a fresh worker never picks it back up.
        engine.run(until=engine.now + 30.0)
        assert master.stats().running == 0

    def test_good_tasks_unaffected_by_poison_neighbour(self, engine):
        master = make_master(
            engine,
            fault_model=FailCategory("bad"),
            health=HealthConfig(poison_k=2, fast_fail_window=100),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
            max_retries=10,
        )
        w1 = Worker(engine, master, "w1", BIG, connect_latency=1.0)
        poison = make_task(category="bad", execute_s=10.0)
        good = [make_task(execute_s=10.0) for _ in range(3)]
        master.submit_many([poison] + good)
        engine.run(until=15.0)
        w1.kill()
        Worker(engine, master, "w2", BIG, connect_latency=1.0)
        engine.run(until=200.0)
        assert master.tasks_poisoned == 1
        assert all(t.state is TaskState.DONE for t in good)
        # The workers that failed the poison task were never blamed.
        assert master.quarantines == 0


class TestQuarantineRejection:
    def test_partition_held_result_rejected_exactly_once(self, engine):
        """Satellite: a worker quarantined while partitioned re-delivers
        its held result after the heal; the delivery is rejected exactly
        once and the task still completes exactly once elsewhere."""
        master = make_master(engine, health=HealthConfig())
        w1 = Worker(engine, master, "w1", BIG, connect_latency=1.0)
        task = make_task(execute_s=20.0)
        master.submit(task)
        run_until_running(engine, task)
        # Partition w1; it finishes the task mid-partition and holds the
        # result.
        w1.partition()
        master.worker_unreachable(w1)
        engine.run(until=engine.now + 25.0)
        assert task.state is TaskState.RETURNING  # finished, undelivered
        # The ledger condemns the worker while it is unreachable. The
        # evacuation cannot reach the already-finished run — only the
        # delivery-time rejection can.
        master._quarantine_worker(w1)
        assert master.quarantines == 1
        Worker(engine, master, "w2", BIG, connect_latency=1.0)
        engine.run(until=engine.now + 10.0)
        assert task.state is not TaskState.DONE  # result still held
        # Heal: the quarantined worker delivers its held result. It is
        # rejected exactly once and the task requeues to a clean worker.
        w1.heal()
        engine.run(until=engine.now + 60.0)
        assert master.quarantined_rejected == 1
        assert task.state is TaskState.DONE
        assert master.done.count(task) == 1  # exactly once, on w2
        assert master.all_done


class TestStaleDelivery:
    def test_backoff_does_not_requeue_a_task_queued_meanwhile(self, engine):
        """A stale held result fails verification against the current
        attempt's corrupt flag and sends the task into backoff while the
        current worker still runs it. That worker's loss then requeues
        the task; when the backoff fires it must not queue it a second
        time."""
        master = make_master(
            engine,
            value_faults=ScriptedValueFaults(result=[False, True]),
            retry_policy=RetryPolicy(base_backoff_s=60.0),
        )
        w1 = Worker(engine, master, "w1", BIG, connect_latency=1.0)
        task = make_task(execute_s=60.0)
        master.submit(task)
        run_until_running(engine, task)
        w1.partition()
        master.worker_unreachable(w1)
        expiry = engine.now + master.liveness_timeout_s
        engine.run(until=expiry - 2.0)
        w2 = Worker(engine, master, "w2", BIG, connect_latency=1.0)
        engine.run(until=expiry + 1.0)
        assert master.running.get(task.id) is task  # attempt 2, on w2
        w1.heal()  # w1's next poll re-delivers its stale held result
        while master.verify_fails == 0 and engine.now < expiry + 60.0:
            engine.run(until=engine.now + 1.0)
        assert master.verify_fails == 1
        w1.kill()
        w2.kill()  # requeues the task while its backoff is pending
        assert master.queue.has_id(task.id)
        engine.run(until=engine.now + 150.0)  # the backoff fires
        assert len(master.queue) == 1
        Worker(engine, master, "w3", BIG, connect_latency=1.0)
        engine.run(until=engine.now + 100.0)
        assert task.state is TaskState.DONE
        assert master.done.count(task) == 1
        assert master.all_done


class TestQuarantineReplay:
    def test_same_tick_quarantine_evacuation_is_replay_deterministic(
        self, engine
    ):
        """Satellite: a quarantine sweep pulling several runs in one tick
        requeues them in submit order, and journal replay reconstructs
        the same queue record for record."""
        master = make_master(engine, health=HealthConfig())
        w = Worker(engine, master, "w1", BIG, connect_latency=1.0)
        tasks = [make_task(execute_s=300.0) for _ in range(4)]
        master.submit_many(tasks)
        engine.run(until=30.0)
        assert all(t.id in w.runs for t in tasks)
        master._quarantine_worker(w)
        queue_ids = [t.id for t in master.queue]
        assert queue_ids == sorted(t.id for t in tasks)  # submit order
        replayed = master.journal.replay()
        assert [t.id for t in replayed.ready] == queue_ids
        assert "w1" in replayed.quarantined
        assert all(t.attempts == 0 for t in tasks)  # evacuation burns none

    def test_crash_recovery_preserves_quarantine(self, engine):
        """The journal carries QUARANTINE across a master crash: the
        reconnecting worker comes back condemned, takes no work, and its
        probation clock restarts."""
        master = make_master(
            engine,
            health=HealthConfig(fast_fail_window=2, probation_after_s=500.0),
            retry_policy=RetryPolicy(base_backoff_s=0.0),
            max_retries=10,
        )
        bh = Worker(engine, master, "bh", BIG, connect_latency=1.0)
        ok = Worker(engine, master, "ok", ResourceVector(1, 4096, 4096), connect_latency=1.0)
        bh.black_hole = BlackHoleProfile(mode="fast-fail", latency_s=1.0)
        tasks = [make_task(execute_s=15.0) for _ in range(5)]
        master.submit_many(tasks)
        engine.run(until=30.0)
        assert bh.quarantined
        master.crash(restart_delay_s=5.0)
        engine.run(until=engine.now + 30.0)
        # Reconnected and still condemned — both flag and ledger agree.
        assert bh.quarantined
        assert master.health.state("bh") is WorkerHealth.QUARANTINED
        assert not bh.runs
        engine.run(until=engine.now + 300.0)
        assert all(t.state is TaskState.DONE for t in tasks)
        assert all(master.done.count(t) == 1 for t in tasks)
        assert ok.state is not None  # the healthy worker did the work
