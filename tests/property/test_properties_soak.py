"""Property-based soak: invariants hold for *any* seeded fault schedule.

The checkers inside :func:`repro.soak.harness.run_soak` include the
journal-replay invariant — replaying the transaction journal at
quiescence must reconstruct the live master's done/abandoned ledgers
bit-for-bit, completions in the same order — so drawing arbitrary seeds
here property-tests crash recovery against the whole chaos vocabulary
(preemption waves, partitions, master crashes, API outages, ...).
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.soak import SoakConfig, generate_schedule, run_soak
from repro.soak.schedule import SoakScheduleConfig

FAST = SoakConfig().smoke()
FAST_MIGRATE = SoakConfig(migrate=True).smoke()
FAST_INTEGRITY = SoakConfig(integrity=True).smoke()
FAST_SHARDED = SoakConfig(shards=4, shard_crash=True).smoke()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_journal_replay_bit_identical_under_any_schedule(seed):
    report = run_soak(seed, FAST)
    assert report.quiesced, report.describe()
    replay_violations = [
        v for v in report.violations if v.invariant == "journal-replay"
    ]
    assert not replay_violations, report.describe()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_every_invariant_holds_under_any_schedule(seed):
    report = run_soak(seed, FAST)
    assert report.ok, report.describe()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
# A worker pod that turned Running during an API outage had no worker
# when the clean-up drain ran; the runtime adopted it afterwards and
# nothing ever drained the new worker.
@example(seed=8448)
def test_every_invariant_holds_with_migrations_enabled(seed):
    """Satellite: for any seeded chaos schedule *including migrations*
    (the ``migrate`` primitive in the pool, preemption drains migrating
    instead of requeueing), journal replay stays bit-identical and task
    conservation holds — total completed work equals submitted work."""
    report = run_soak(seed, FAST_MIGRATE)
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
# A partitioned worker's stale run moved the shared task's state while
# a later attempt's failure backed off; the backoff then skipped the
# requeue and the task was stranded.
@example(seed=33)
# A stale copy's worker died while the task backed off, and its loss
# requeued the task; the backoff then queued it a second time.
@example(seed=1396)
def test_every_invariant_holds_with_integrity_enabled(seed):
    """Satellite: for any seeded chaos schedule *including value faults*
    (silent result/checkpoint corruption, black-hole workers, health
    ledger armed), every invariant holds — in particular journal replay
    stays bit-identical with VERIFY_FAIL/QUARANTINE/UNQUARANTINE records
    in the stream, and no corrupted result ever reaches COMPLETE."""
    report = run_soak(seed, FAST_INTEGRITY)
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()
    assert report.stats["corrupted_completes"] == 0, report.describe()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_schedule_generation_is_pure(seed):
    assert generate_schedule(seed) == generate_schedule(seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_migrate_flag_leaves_other_draws_bit_identical(seed):
    """Enabling the opt-in ``migrate`` kind only *adds* events: the
    non-migrate subsequence of a migrate-enabled schedule never loses
    determinism guarantees — generation stays pure under the flag."""
    cfg = SoakScheduleConfig(migrate=True)
    assert generate_schedule(seed, cfg) == generate_schedule(seed, cfg)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
# A shard that adopted a task by rebalance and then lost it to failover
# replayed it back as its own after restarting.
@example(seed=34)
# Workers a whole-plane crash cut off had not reconnected when their
# shard died for good, so the failover never re-pointed them.
@example(seed=8)
# The same for a worker declared lost behind a partition.
@example(seed=635)
# A healed partition delivered a held result to the shard that had
# handed the task away; the adopting shard ran it again.
@example(seed=492)
# The dead shard's grace expired during a whole-plane crash and the
# failover was never retried.
@example(seed=604)
# A worker that started while every shard was down joined the shard
# that never came back, and the failover did not re-point it.
@example(seed=5905)
def test_every_invariant_holds_with_shard_crashes_enabled(seed):
    """Satellite (PR 10): for any seeded chaos schedule *including
    shard crashes* (the plane runs as 4 masters behind a foreman with a
    failover coordinator, the ``shard_crash`` primitive in the pool),
    every invariant holds — in particular the failover-protocol audit
    on the merged journal: no task resumed twice, every
    FAILOVER_OUT/IN pair balanced, nothing stranded on a dead shard."""
    report = run_soak(seed, FAST_SHARDED)
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_shard_crash_flag_is_opt_in_only(seed):
    """The ``shard_crash`` kind is strictly additive: a default
    schedule is bit-identical whether or not the flag exists, and a
    shard-crash-enabled schedule is itself pure."""
    assert generate_schedule(seed, SoakScheduleConfig()) == generate_schedule(
        seed, SoakScheduleConfig(shard_crash=False)
    )
    cfg = SoakScheduleConfig(shard_crash=True)
    assert generate_schedule(seed, cfg) == generate_schedule(seed, cfg)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_integrity_flag_is_opt_in_only(seed):
    """The value-fault kinds are strictly additive: a default schedule
    is bit-identical whether or not the ``integrity`` machinery exists,
    and an integrity-enabled schedule is itself pure."""
    assert generate_schedule(seed, SoakScheduleConfig()) == generate_schedule(
        seed, SoakScheduleConfig(integrity=False)
    )
    cfg = SoakScheduleConfig(integrity=True)
    assert generate_schedule(seed, cfg) == generate_schedule(seed, cfg)
