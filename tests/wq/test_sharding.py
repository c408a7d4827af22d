"""The sharded data plane: partitioner, foreman aggregation, transfers.

DESIGN.md §15: a :class:`Foreman` splits a workflow across N
:class:`Master` shards by a seeded hash of its submit order
(:func:`shard_of`) and aggregates the shards into the one logical view
the autoscaler consumes. These
tests pin the shard-boundary protocols — deterministic routing, the
cross-shard checkpoint transfer resuming exactly once, degraded-mode
aggregation with a crashed shard — and the merged-journal semantics.
"""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.sim.rng import RngRegistry
from repro.soak.invariants import check_failover_protocol
from repro.wq.dispatch import DISPATCH_COUNTERS, DispatchConfig, DispatchCore
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.faults import CategoryFaultProfile, RetryPolicy, TaskFaultModel
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.migration import CheckpointSpec
from repro.wq.sharding import (
    FailoverConfig,
    FailoverCoordinator,
    Foreman,
    merge_journals,
    shard_of,
)
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker

FOOT = ResourceVector(1, 512, 128)
CAP = ResourceVector(4, 4096, 4096)
SPEC = CheckpointSpec(interval_s=10.0, cost_s=1.0, size_mb=10.0)


def make_task(execute_s=10.0, checkpoint=None):
    return Task(
        "c",
        execute_s=execute_s,
        footprint=FOOT,
        declared=FOOT,
        checkpoint=checkpoint,
    )


def make_foreman(engine, n=2, seed=1):
    link = Link(engine, 100.0)
    shards = [
        Master(
            engine,
            link,
            estimator=DeclaredResourceEstimator(),
            name=f"m{i}",
        )
        for i in range(n)
    ]
    foreman = Foreman(engine, shards, seed=seed)
    return foreman, shards


class TestTaskPartitioner:
    """:func:`shard_of`: the ``n``-th submit of a run -> its shard."""

    def test_hash_routing_is_deterministic(self):
        assert [shard_of(n, 4, 7) for n in range(100)] == [
            shard_of(n, 4, 7) for n in range(100)
        ]

    def test_seed_reshuffles_the_assignment(self):
        assert [shard_of(n, 4, 1) for n in range(100)] != [
            shard_of(n, 4, 2) for n in range(100)
        ]

    def test_hash_mode_balances(self):
        counts = [0, 0, 0, 0]
        for n in range(10_000):
            counts[shard_of(n, 4)] += 1
        for count in counts:
            assert 0.15 * 10_000 <= count <= 0.35 * 10_000

    def test_single_shard_takes_everything(self):
        assert {shard_of(n, 1, 99) for n in range(50)} == {0}

    def test_foreman_routes_by_the_runs_own_submit_order(self, engine):
        # Tasks made before the run shift every task id but no submit
        # number, so they cannot move a task to another shard.
        [make_task() for _ in range(3)]
        foreman, shards = make_foreman(engine, 4, seed=3)
        tasks = [make_task() for _ in range(40)]
        foreman.submit_many(tasks)
        for n, task in enumerate(tasks, start=1):
            assert shards[shard_of(n, 4, 3)].queue.has_id(task.id)


class TestForemanConstruction:
    def test_rejects_empty_shard_list(self, engine):
        with pytest.raises(ValueError):
            Foreman(engine, [])


class TestAggregation:
    def test_counters_and_stats_sum_over_shards(self, engine):
        foreman, (a, b) = make_foreman(engine, 2)
        for shard in (a, b):
            Worker(engine, shard, f"w-{shard.name}", CAP, connect_latency=1.0)
        tasks = [make_task(execute_s=5.0) for _ in range(16)]
        foreman.submit_many(tasks)
        engine.run(until=9.0)  # mid-flight: some done, some queued/running
        assert a.tasks_submitted > 0 and b.tasks_submitted > 0  # both used
        stats = foreman.stats()
        sa, sb = a.stats(), b.stats()
        assert stats.done == sa.done + sb.done
        assert stats.waiting == sa.waiting + sb.waiting
        assert stats.running == sa.running + sb.running
        assert stats.workers_connected == 2
        assert foreman.tasks_submitted == len(tasks)
        assert len(foreman.queue) == len(a.queue) + len(b.queue)
        assert len(foreman.done) == len(a.done) + len(b.done)
        engine.run(until=200.0)
        assert foreman.all_done
        assert foreman.stats().done == len(tasks)

    def test_every_table_counter_is_a_typed_sum_over_the_shards(self, engine):
        config = DispatchConfig(
            fault_model=TaskFaultModel(
                RngRegistry(5), default=CategoryFaultProfile(failure_prob=0.3)
            ),
            retry_policy=RetryPolicy(base_backoff_s=1.0),
        )
        link = Link(engine, 100.0)
        shards = [
            Master(
                engine,
                link,
                config=config,
                estimator=DeclaredResourceEstimator(),
                name=f"m{i}",
            )
            for i in range(3)
        ]
        foreman = Foreman(engine, shards, seed=1)
        workers = [
            Worker(engine, s, f"w-{s.name}", CAP, connect_latency=1.0)
            for s in shards
        ]
        foreman.submit_many([make_task(execute_s=20.0) for _ in range(30)])
        engine.run(until=15.0)
        workers[0].kill()  # its in-flight runs requeue on shard 0
        Worker(engine, shards[0], "w-m0-b", CAP, connect_latency=1.0)
        engine.run(until=1000.0)
        assert foreman.all_done
        assert foreman.tasks_failed > 0 and foreman.tasks_requeued > 0
        assert foreman.wasted_core_s > 0.0
        fresh = DispatchCore(engine, link)
        for name, zero in DISPATCH_COUNTERS.items():
            total = sum(getattr(s, name) for s in shards)
            value = getattr(foreman, name)
            assert value == total, name
            assert type(value) is type(total) is type(zero), name
            assert isinstance(Foreman.__dict__[name], property), name
            held = getattr(fresh, name)
            assert held == zero and type(held) is type(zero), name

    def test_merged_journal_orders_by_time_and_conserves_records(self, engine):
        foreman, (a, b) = make_foreman(engine, 2)
        for shard in (a, b):
            Worker(engine, shard, f"w-{shard.name}", CAP, connect_latency=1.0)
        foreman.submit_many([make_task(execute_s=3.0) for _ in range(10)])
        engine.run(until=100.0)
        assert foreman.all_done
        merged = merge_journals([a.journal, b.journal])
        assert len(merged) == len(a.journal) + len(b.journal)
        times = [rec.time for rec in merged.records]
        assert times == sorted(times)
        # Per-shard record order survives the merge.
        for shard in (a, b):
            own = [r for r in merged.records if r in shard.journal.records]
            assert own == list(shard.journal.records)
        # The foreman's journal property is the same merged view.
        assert foreman.journal.digest() == merged.digest()


class TestCrossShardTransfer:
    def test_checkpoint_transfer_resumes_exactly_once(self, engine):
        """Satellite protocol: a task submitted to shard A, checkpointed
        there (PR 7 migration path), handed to shard B via the foreman,
        and finished by a B-owned worker — exactly one completion, with
        the banked progress resumed on B and the merged journal folding
        back clean."""
        foreman, (a, b) = make_foreman(engine, 2)
        wa = Worker(engine, a, "wa", CAP, connect_latency=1.0)
        Worker(engine, b, "wb", CAP, connect_latency=1.0)
        task = make_task(execute_s=100.0, checkpoint=SPEC)
        a.submit(task)
        engine.run(until=2.0)
        assert task.state is TaskState.RUNNING
        start = task.start_time
        engine.run(until=start + 35.0)
        banked = SPEC.banked_progress(engine.now - start)
        assert banked == 30.0
        assert wa.migrate_out(task)
        wa.drain()  # the PR 7 drain flow: checkpoint out, then leave —
        # with A's only worker gone the requeued task cannot bounce back
        # onto shard A before the foreman moves it.
        engine.run(until=engine.now + SPEC.cost_s + 1.0)  # cut + ship
        assert a.migrations_accepted == 1
        assert task.progress_s == banked
        # The foreman moves the checkpointed task across the boundary.
        assert foreman.transfer_queued(task, b)
        assert foreman.transfers == 1
        assert task.id not in {t.id for t in a.queue}
        engine.run(until=engine.now + 90.0)
        assert task.state is TaskState.DONE
        # Exactly once, and on the other side of the boundary.
        assert [t.id for t in b.done] == [task.id]
        assert [t.id for t in a.done] == []
        # B journaled the resume with A's banked progress.
        b_migrate_in = [
            r for r in b.journal.records if r.op == "migrate_in"
        ]
        assert [r.progress for r in b_migrate_in] == [banked]
        # The merged journal replays to one completion, no residue. (The
        # per-shard journals individually do NOT balance — submit lives
        # on A, complete on B — which is why the merged view is the
        # canonical one.)
        state = foreman.journal.replay()
        assert [t.id for t, _ in state.completions] == [task.id]
        assert not state.ready and not state.unclaimed
        assert state.progress[task.id] == banked

    def test_transfer_of_unqueued_task_is_refused(self, engine):
        foreman, (a, b) = make_foreman(engine, 2)
        Worker(engine, a, "wa", CAP, connect_latency=1.0)
        task = make_task(execute_s=50.0)
        a.submit(task)
        engine.run(until=5.0)
        assert task.state is TaskState.RUNNING  # not queued: refuse
        assert not foreman.transfer_queued(task, b)
        assert foreman.transfers == 0


class TestDegradedMode:
    def test_one_crashed_shard_degrades_but_keeps_the_plane_available(
        self, engine
    ):
        foreman, (a, b) = make_foreman(engine, 2)
        for shard in (a, b):
            Worker(engine, shard, f"w-{shard.name}", CAP, connect_latency=1.0)
        foreman.submit_many([make_task(execute_s=20.0) for _ in range(12)])
        engine.run(until=10.0)
        b.crash()
        assert foreman.available  # one live shard keeps the plane up
        assert foreman.degraded and foreman.any_crashed
        # The aggregated view now equals the live shard's ground truth —
        # the operator sizes from what is actually reachable.
        assert foreman.stats() == a.stats()
        assert foreman.cores_in_use() == a.cores_in_use()
        assert foreman.cores_waiting() == a.cores_waiting()
        assert foreman.supplied_cores() == a.supplied_cores()
        # Completion history still spans all shards (B's finished work
        # is not forgotten, it is just not schedulable state).
        assert len(foreman.done) == len(a.done) + len(b.done)
        b.recover()
        engine.run(until=400.0)
        assert not foreman.degraded
        assert foreman.all_done

    def test_all_shards_crashed_means_unavailable(self, engine):
        foreman, (a, b) = make_foreman(engine, 2)
        a.crash()
        b.crash()
        assert not foreman.available
        stats = foreman.stats()
        assert stats.done == 0 and stats.waiting == 0

    def test_any_all_crashed_split(self, engine):
        """``any_crashed`` (degraded, some partition dark) vs
        ``all_crashed`` (logical master gone)."""
        foreman, (a, b) = make_foreman(engine, 2)
        assert not foreman.any_crashed
        assert not foreman.all_crashed
        a.crash()
        assert foreman.any_crashed
        assert not foreman.all_crashed
        b.crash()
        assert foreman.any_crashed and foreman.all_crashed
        a.recover()
        assert foreman.any_crashed  # b is still down
        assert not foreman.all_crashed
        b.recover()
        assert not foreman.any_crashed


def make_coordinator(engine, foreman, grace_s=10.0):
    """A failover coordinator with the rebalance tick disarmed — these
    tests pin the crash/grace/re-home protocol itself, not the
    starvation-repair sweep."""
    return FailoverCoordinator(
        engine,
        foreman,
        FailoverConfig(grace_s=grace_s, rebalance_interval_s=None),
    )


class TestFailoverEdges:
    """Satellite (PR 10): cross-shard transfer failure edges and the
    recovery-after-failover replay semantics."""

    def test_transfer_destination_crash_rehomes_from_its_journal(
        self, engine
    ):
        """A transfer lands a task on shard B via FAILOVER_IN; B then
        crashes before dispatching it. The task now lives *only* in B's
        journal — the coordinator's replay must re-home it onto the
        survivor, where it runs exactly once, with the merged journal's
        OUT/IN chains balanced (transfer pair + failover pair)."""
        foreman, (a, b) = make_foreman(engine, 2)
        coordinator = make_coordinator(engine, foreman, grace_s=30.0)
        Worker(engine, a, "wa", CAP, connect_latency=1.0)
        task = make_task(execute_s=5.0)
        a.submit(task)
        assert foreman.transfer_queued(task, b)  # before wa connects
        engine.run(until=5.0)
        assert task.id not in {t.id for t in a.queue}
        foreman.crash_shard(1)  # permanent: no restart scheduled
        # The crash wiped B's in-memory queue; only its journal knows.
        assert len(b.queue) == 0
        assert task.state is not TaskState.DONE
        engine.run(until=5.0 + 30.0 + 1.0)  # grace expires -> failover
        assert coordinator.failovers == 1
        assert coordinator.tasks_rehomed == 1
        engine.run(until=120.0)
        assert task.state is TaskState.DONE
        assert [t.id for t in foreman.done] == [task.id]
        assert check_failover_protocol(foreman) == []

    def test_double_failover_of_the_same_shard(self, engine):
        """Crash -> failover -> recover -> crash -> failover again on
        one shard: both generations of re-homes fold clean (every
        FAILOVER_OUT/IN pair balanced, no task resumed twice) and all
        work completes."""
        foreman, (a, b) = make_foreman(engine, 2)
        coordinator = make_coordinator(engine, foreman, grace_s=10.0)
        Worker(engine, a, "wa", CAP, connect_latency=1.0)
        first = [make_task(execute_s=2.0) for _ in range(8)]
        for task in first:
            b.submit(task)  # B has no workers: all 8 stay queued
        foreman.crash_shard(1)
        engine.run(until=11.0)
        assert coordinator.failovers == 1
        assert coordinator.tasks_rehomed == 8
        foreman.recover_shard(1)
        # Replay folded the FAILOVER_OUT records: B rejoins empty.
        assert len(b.queue) == 0 and not b._unclaimed
        second = [make_task(execute_s=2.0) for _ in range(4)]
        for task in second:
            b.submit(task)
        foreman.crash_shard(1)
        engine.run(until=engine.now + 11.0)
        assert coordinator.failovers == 2
        # Second replay surfaced only the second generation's tasks.
        assert coordinator.tasks_rehomed == 12
        engine.run(until=engine.now + 120.0)
        assert foreman.all_done
        assert all(t.state is TaskState.DONE for t in first + second)
        done_ids = [t.id for t in foreman.done]
        assert len(done_ids) == len(set(done_ids)) == 12
        assert check_failover_protocol(foreman) == []

    def test_recovered_shard_replay_discards_rehomed_entries(self, engine):
        """A shard that comes back *after* its work was failed over
        un-retires empty-handed: its journal replay discards the
        re-homed entries, so nothing double-dispatches, and fresh
        submits route to it again."""
        foreman, (a, b) = make_foreman(engine, 2)
        coordinator = make_coordinator(engine, foreman, grace_s=10.0)
        Worker(engine, a, "wa", CAP, connect_latency=1.0)
        tasks = [make_task(execute_s=2.0) for _ in range(6)]
        for task in tasks:
            b.submit(task)
        foreman.crash_shard(1)
        engine.run(until=12.0)
        assert coordinator.failovers == 1
        assert coordinator.tasks_rehomed == 6
        foreman.recover_shard(1)
        assert len(b.queue) == 0 and not b._unclaimed
        assert not foreman.degraded
        # The un-retired shard accepts and finishes new work normally.
        Worker(engine, b, "wb", CAP, connect_latency=1.0)
        late = make_task(execute_s=2.0)
        b.submit(late)
        engine.run(until=120.0)
        assert foreman.all_done
        assert all(t.state is TaskState.DONE for t in tasks + [late])
        done_ids = [t.id for t in foreman.done]
        assert len(done_ids) == len(set(done_ids)) == 7
        assert late.id in {t.id for t in b.done}
        assert check_failover_protocol(foreman) == []

    def test_stale_delivery_to_the_giving_shard_is_rejected(self, engine):
        """A task handed from shard A to shard B belongs to B: a worker
        still bound to A that delivers a held result after the hand-off
        (a healed partition) must not complete it on A, or B would keep
        running — and re-dispatching — a task that is already done."""
        foreman, (a, b) = make_foreman(engine, 2)
        wa = Worker(engine, a, "wa", CAP, connect_latency=1.0)
        task = make_task(execute_s=30.0)
        a.submit(task)
        engine.run(until=5.0)
        assert task.id in a.running
        wa.partition()
        a.worker_unreachable(wa)
        # wa finishes behind the partition and holds the result; the
        # liveness expiry requeues the task on A.
        engine.run(until=5.0 + a.liveness_timeout_s + 1.0)
        assert a.queue.has_id(task.id)
        Worker(engine, b, "wb", CAP, connect_latency=1.0)
        assert foreman.transfer_queued(task, b)
        wa.heal()  # wa's next poll redelivers to A while wb still runs
        engine.run(until=300.0)
        assert task.state is TaskState.DONE
        assert task.result.worker_name == "wb"
        assert task.id not in {t.id for t in a.done}
        assert [t.id for t in foreman.done] == [task.id]
        state = foreman.journal.replay()
        assert not state.unclaimed and not state.ready
        assert check_failover_protocol(foreman) == []

    def test_worker_cut_off_by_an_earlier_crash_is_reattached(self, engine):
        """A worker an earlier crash cut off, which had not reconnected
        when its shard died for good, still polls that shard: the
        failover re-points it at a survivor like the shard's listed
        workers, instead of leaving it polling a dead master forever."""
        foreman, (a, b) = make_foreman(engine, 2)
        coordinator = make_coordinator(engine, foreman, grace_s=10.0)
        wb = Worker(engine, b, "wb", CAP, connect_latency=1.0)
        engine.run(until=2.0)
        b.crash()
        engine.run(until=2.5)
        b.recover()  # back before wb's first reconnect poll
        foreman.crash_shard(1)  # permanent
        assert "wb" not in b.workers
        engine.run(until=15.0)
        assert coordinator.failovers == 1
        assert coordinator.workers_reattached == 1
        assert wb.master is a and a.workers.get("wb") is wb

    def test_failover_waits_out_a_whole_plane_crash(self, engine):
        """When a dead shard's grace expires while every other shard is
        down too, the failover retries one grace period later instead
        of stranding the dead shard's work."""
        foreman, (a, b) = make_foreman(engine, 2)
        coordinator = make_coordinator(engine, foreman, grace_s=10.0)
        Worker(engine, a, "wa", CAP, connect_latency=1.0)
        tasks = [make_task(execute_s=2.0) for _ in range(3)]
        for task in tasks:
            b.submit(task)  # B has no workers: all 3 stay queued
        engine.run(until=2.0)
        foreman.crash_shard(1)  # permanent
        a.crash(restart_delay_s=15.0)
        engine.run(until=13.0)
        assert coordinator.failovers == 0
        assert coordinator.failovers_aborted == 1
        engine.run(until=23.0)
        assert coordinator.failovers == 1
        assert coordinator.tasks_rehomed == 3
        engine.run(until=200.0)
        assert foreman.all_done
        assert all(t.state is TaskState.DONE for t in tasks)
        assert check_failover_protocol(foreman) == []

    def test_worker_that_joined_a_dark_shard_is_reattached(self, engine):
        """A worker pod started while no shard was up registers with a
        shard that then never comes back; the failover re-points it at
        a survivor and drops it from the dead shard's table."""
        foreman, (a, b) = make_foreman(engine, 2)
        coordinator = make_coordinator(engine, foreman, grace_s=10.0)
        foreman.crash_shard(1)  # permanent
        a.crash(restart_delay_s=15.0)
        wb = Worker(engine, b, "wb", CAP, connect_latency=1.0)
        engine.run(until=5.0)
        assert b.workers.get("wb") is wb  # joined the dark shard
        engine.run(until=25.0)  # grace retried once a was back
        assert coordinator.failovers == 1
        assert coordinator.workers_reattached == 1
        assert wb.master is a and a.workers.get("wb") is wb
        assert "wb" not in b.workers
        task = make_task(execute_s=2.0)
        foreman.submit(task)
        engine.run(until=60.0)
        assert task.state is TaskState.DONE


class TestRebalance:
    """The starvation-repair sweep: a shard that cannot dispatch hands
    its queue to shards that can."""

    @staticmethod
    def coordinator(engine, foreman):
        return FailoverCoordinator(
            engine, foreman, FailoverConfig(grace_s=10.0, rebalance_interval_s=5.0)
        )

    def test_queue_behind_a_quarantined_only_worker_moves(self, engine):
        """A quarantined worker takes no work, so a shard whose only
        worker is quarantined is as starved as one with none: its queue
        moves to the shard with an idle healthy worker and completes."""
        foreman, (a, b) = make_foreman(engine, 2)
        coordinator = self.coordinator(engine, foreman)
        Worker(engine, a, "wa", CAP, connect_latency=1.0)
        wb = Worker(engine, b, "wb", CAP, connect_latency=1.0)
        engine.run(until=2.0)
        b._quarantine_worker(wb)  # no health ledger: no probation
        tasks = [make_task(execute_s=2.0) for _ in range(3)]
        for task in tasks:
            b.submit(task)
        engine.run(until=4.0)
        assert len(b.queue) == 3  # wb takes nothing
        engine.run(until=60.0)
        assert coordinator.tasks_rebalanced == 3
        assert all(t.state is TaskState.DONE for t in tasks)
        assert check_failover_protocol(foreman) == []

    def test_a_quarantined_idle_worker_makes_no_target(self, engine):
        """A shard whose only idle worker is quarantined could run none
        of the moved work: every task goes to the healthy shard."""
        foreman, (a, b, c) = make_foreman(engine, 3)
        coordinator = self.coordinator(engine, foreman)
        wa = Worker(engine, a, "wa", CAP, connect_latency=1.0)
        Worker(engine, c, "wc", CAP, connect_latency=1.0)
        engine.run(until=2.0)
        a._quarantine_worker(wa)
        tasks = [make_task(execute_s=2.0) for _ in range(4)]
        for task in tasks:
            b.submit(task)  # b has no workers at all
        engine.run(until=60.0)
        assert coordinator.tasks_rebalanced == 4
        assert not a.queue and not a.done
        assert all(t.state is TaskState.DONE for t in tasks)
        assert check_failover_protocol(foreman) == []
