"""Property-based soak: invariants hold for *any* seeded fault schedule.

The checkers inside :func:`repro.soak.harness.run_soak` include the
journal-replay invariant — replaying the transaction journal at
quiescence must reconstruct the live master's done/abandoned ledgers
bit-for-bit, completions in the same order — so drawing arbitrary seeds
here property-tests crash recovery against the whole chaos vocabulary
(preemption waves, partitions, master crashes, API outages, ...).

A soak seed also picks what the run arms: bit ``i`` of ``seed % 8``
arms ``("migrate", "integrity", "sharded")[i]``. The two general
properties draw seeds over all eight arm codes, and each per-feature
property draws over the four codes that arm its feature, so features
are soaked together as well as alone.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.soak import SoakConfig, generate_schedule, run_soak
from repro.soak.schedule import ARMS, FAULT_KIND_WEIGHTS, armed

FAST = SoakConfig().smoke()

#: Soak seeds over every base seed up to 100,000 and every arm code.
SEEDS = st.integers(min_value=0, max_value=8 * 100_000 + 7)


def seeds_arming(arm: str) -> st.SearchStrategy[int]:
    """Soak seeds over the four arm codes that arm ``arm``."""
    bit = 1 << ARMS.index(arm)
    return st.tuples(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=0, max_value=7),
    ).map(lambda drawn: 8 * drawn[0] + (drawn[1] | bit))


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_journal_replay_bit_identical_under_any_schedule(seed):
    report = run_soak(seed, FAST)
    assert report.quiesced, report.describe()
    replay_violations = [
        v for v in report.violations if v.invariant == "journal-replay"
    ]
    assert not replay_violations, report.describe()


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_every_invariant_holds_under_any_schedule(seed):
    report = run_soak(seed, FAST)
    assert report.ok, report.describe()


@settings(max_examples=10, deadline=None)
@given(seed=seeds_arming("migrate"))
# A worker pod that turned Running during an API outage had no worker
# when the clean-up drain ran; the runtime adopted it afterwards and
# nothing ever drained the new worker.
@example(seed=67585)
def test_every_invariant_holds_with_migrations_enabled(seed):
    """Satellite: for any seeded chaos schedule *including migrations*
    (the ``migrate`` primitive in the pool, preemption drains migrating
    instead of requeueing), journal replay stays bit-identical and task
    conservation holds — total completed work equals submitted work."""
    report = run_soak(seed, FAST)
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()


@settings(max_examples=10, deadline=None)
@given(seed=seeds_arming("integrity"))
# A partitioned worker's stale run moved the shared task's state while
# a later attempt's failure backed off; the backoff then skipped the
# requeue and the task was stranded.
@example(seed=266)
# A stale copy's worker died while the task backed off, and its loss
# requeued the task; the backoff then queued it a second time.
@example(seed=11170)
def test_every_invariant_holds_with_integrity_enabled(seed):
    """Satellite: for any seeded chaos schedule *including value faults*
    (silent result/checkpoint corruption, black-hole workers, health
    ledger armed), every invariant holds — in particular journal replay
    stays bit-identical with VERIFY_FAIL/QUARANTINE/UNQUARANTINE records
    in the stream, and no corrupted result ever reaches COMPLETE."""
    report = run_soak(seed, FAST)
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()
    assert report.stats["corrupted_completes"] == 0, report.describe()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_schedule_generation_is_pure(seed):
    assert generate_schedule(seed) == generate_schedule(seed)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_a_kind_strikes_only_where_its_arm_is_armed(seed):
    arms = armed(seed)
    for event in generate_schedule(seed):
        arm = FAULT_KIND_WEIGHTS[event.kind][1]
        assert arm is None or arm in arms, (seed, event)


@settings(max_examples=10, deadline=None)
@given(seed=seeds_arming("sharded"))
# A shard that adopted a task by rebalance and then lost it to failover
# replayed it back as its own after restarting.
@example(seed=276)
# Workers a whole-plane crash cut off had not reconnected when their
# shard died for good, so the failover never re-pointed them.
@example(seed=68)
# The same for a worker declared lost behind a partition.
@example(seed=5084)
# A healed partition delivered a held result to the shard that had
# handed the task away; the adopting shard ran it again.
@example(seed=3940)
# The dead shard's grace expired during a whole-plane crash and the
# failover was never retried.
@example(seed=4836)
# A worker that started while every shard was down joined the shard
# that never came back, and the failover did not re-point it.
@example(seed=47244)
# A shard whose only worker was quarantined was never called starved,
# so its queue stayed put for good (with integrity armed).
@example(seed=223)
@example(seed=231)
@example(seed=702)
@example(seed=703)
# When only the starved rule counted quarantine, a shard whose workers
# were all quarantined was starved and a rebalance target at once: it
# passed tasks in and out in one instant, and after a whole-plane crash
# handed them out again while another shard's attempts were running.
@example(seed=471)
def test_every_invariant_holds_with_shard_crashes_enabled(seed):
    """Satellite (PR 10): for any seeded chaos schedule *including
    shard crashes* (the plane runs as 4 masters behind a foreman with a
    failover coordinator, the ``shard_crash`` primitive in the pool),
    every invariant holds — in particular the failover-protocol audit
    on the merged journal: no task resumed twice, every
    FAILOVER_OUT/IN pair balanced, nothing stranded on a dead shard."""
    report = run_soak(seed, FAST)
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()
