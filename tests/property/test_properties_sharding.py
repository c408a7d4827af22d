"""Property: merged shard journals agree with the foreman's aggregates.

Satellite invariant of the sharded data plane: for any shard count,
shard seed, and workload, replaying the *merged* per-shard
journals reconstructs the same task-conservation totals the foreman
reports live — every submitted task is exactly one of
completed / ready / in-flight, at the end and at any mid-run cut.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.sharding import Foreman, merge_journals
from repro.wq.task import Task
from repro.wq.worker import Worker

FOOT = ResourceVector(1, 512, 128)
CAP = ResourceVector(4, 4096, 4096)


def build_plane(n_shards: int, seed: int):
    engine = Engine()
    link = Link(engine, 100.0)
    shards = [
        Master(engine, link, estimator=DeclaredResourceEstimator(), name=f"m{i}")
        for i in range(n_shards)
    ]
    foreman = Foreman(engine, shards, seed=seed)
    for shard in shards:
        Worker(engine, shard, f"w-{shard.name}", CAP, connect_latency=1.0)
    return engine, foreman, shards


@given(
    n_shards=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    runtimes=st.lists(
        st.floats(min_value=1.0, max_value=20.0), min_size=1, max_size=10
    ),
)
@settings(max_examples=30, deadline=None)
def test_merged_journals_replay_to_the_foreman_aggregate(
    n_shards, seed, runtimes
):
    engine, foreman, shards = build_plane(n_shards, seed)
    tasks = [
        Task("c", execute_s=r, footprint=FOOT, declared=FOOT) for r in runtimes
    ]
    foreman.submit_many(tasks)

    # Mid-run cut: conservation must hold at any event boundary.
    engine.run(until=10.0)
    state = foreman.journal.replay()
    assert (
        len(state.completions) + len(state.ready) + len(state.unclaimed)
        == foreman.tasks_submitted
        == len(tasks)
    )
    assert len(state.ready) == len(foreman.queue)
    assert len(state.unclaimed) == len(foreman.running) + len(foreman._unclaimed)
    assert len(state.completions) == len(foreman.done)

    # Run to completion: everything conserved into the completion set.
    engine.run(until=2_000.0)
    assert foreman.all_done
    merged = merge_journals([s.journal for s in shards])
    assert len(merged) == sum(len(s.journal) for s in shards)
    final = merged.replay()
    assert not final.ready and not final.unclaimed
    assert len(final.completions) == foreman.stats().done == len(tasks)
    assert sorted(t.id for t, _ in final.completions) == sorted(
        t.id for t in tasks
    )
    # The live aggregate and the replayed history name the same tasks.
    assert sorted(t.id for t in foreman.done) == sorted(
        t.id for t, _ in final.completions
    )
