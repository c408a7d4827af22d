"""Sharded data plane: task partitioning and the foreman tier.

One :class:`~repro.wq.master.Master` serializes all dispatch. That is
faithful to Work Queue, and since a dispatch pass costs O(placed +
signatures) (:class:`~repro.wq.dispatch.TaskQueue`) one master keeps
up even with a million queued tasks. What one master cannot give is
availability: if it dies, so does the whole data plane. This module
splits the data plane the way glide-in / pool-of-pools systems do, so
one shard's loss is survivable (:class:`FailoverCoordinator`):

* :class:`TaskPartitioner` — a seeded hash (or range) function mapping
  every task id to one of N shards, so a workflow fans out across N
  independent masters, each owning a disjoint slice of the queue;
* :class:`Foreman` — the master-of-masters. Workers and tasks talk to
  their own shard; the foreman aggregates per-shard queue status
  (``cores_waiting``, category stats via the shared monitor, counters,
  quarantine sets) *upward* so :class:`~repro.hta.operator.HtaOperator`
  and the accounting layer consume one logical view unchanged.

What stays per-shard: the queue, the run table, retry/backoff state,
the transaction journal, worker sessions. What is global: the
:class:`~repro.wq.monitor.ResourceMonitor` (all shards feed one
category-statistics view, so allocation estimates see the full sample
stream), the HTA control loop, and the foreman's aggregate accounting.

Conservation accounting is defined on the *merged* journal
(:func:`merge_journals`): a cross-shard transfer leaves a SUBMIT in the
origin shard and a COMPLETE in the destination, so per-shard journals
intentionally do not balance — the merged log, ordered by time with
stable shard order, replays to the same task-conservation totals as
the foreman's aggregate view (pinned by a Hypothesis property). Every
cross-shard move (a :meth:`Foreman.transfer_queued` rebalance or a
:class:`FailoverCoordinator` re-home off a dead shard) is journaled as
a FAILOVER_OUT/FAILOVER_IN pair, so each shard's own log still replays
to exactly the work that shard currently owes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.sim.engine import Engine
from repro.wq.dispatch import DISPATCH_COUNTERS, CompletionCallback, MasterStats
from repro.wq.journal import TransactionJournal
from repro.wq.master import Master
from repro.wq.task import Task
from repro.wq.worker import Worker, WorkerState

#: Knuth's multiplicative constant — spreads sequential task ids
#: uniformly across shards without the process-salted ``hash()``.
_KNUTH = 2654435761


@dataclass(frozen=True, slots=True)
class TaskPartitioner:
    """Deterministic task-id → shard mapping.

    A seeded multiplicative hash scatters sequential ids uniformly, so
    no shard gets a run of one category when category mix correlates
    with submit order. It is a pure function of ``(task_id, n_shards,
    seed)``: two runs at the same seed partition identically, which the
    fidelity harness depends on.
    """

    n_shards: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")

    def shard_for(self, task_id: int) -> int:
        if self.n_shards == 1:
            return 0
        return ((task_id * _KNUTH) ^ self.seed) % self.n_shards


def merge_journals(
    journals: Iterable[TransactionJournal],
) -> TransactionJournal:
    """Merge per-shard journals into one log ordered by record time.

    Ties break by shard index then per-shard append order, so the merge
    is a deterministic total order that preserves every shard's internal
    sequence — the property replay depends on (a task's SUBMIT on shard
    A folds before its MIGRATE_IN on shard B at the same timestamp only
    if A precedes B, which the transfer protocol guarantees by writing
    the MIGRATE_OUT before the destination dispatches)."""
    keyed: List[Tuple[float, int, int, object]] = []
    for shard_idx, journal in enumerate(journals):
        for pos, rec in enumerate(journal.records):
            keyed.append((rec.time, shard_idx, pos, rec))
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    merged = TransactionJournal()
    merged.records = [rec for _, _, _, rec in keyed]  # type: ignore[misc]
    merged.appends = len(merged.records)
    return merged


class Foreman:
    """Master-of-masters: N dispatch shards behind one logical master.

    The foreman implements the read side of the master surface (stats,
    counters, accounting gauges, task/worker listings) by aggregation,
    and the write side (submit, callbacks, pause/resume, evacuation) by
    routing — submits through the partitioner, worker-scoped operations
    to the shard that owns the worker. Workers themselves never see the
    foreman: each is constructed against its shard master and speaks
    the ordinary worker↔master protocol.

    Degraded mode: a crashed or paused shard drops out of
    :meth:`stats` and the accounting gauges (its numbers are
    unreachable, exactly as a partitioned sub-pool's would be), while
    :attr:`available` stays True as long as *any* shard accepts work —
    one lost shard must not look like total master loss to HTA.
    """

    def __init__(
        self,
        engine: Engine,
        shards: Sequence[Master],
        partitioner: Optional[TaskPartitioner] = None,
    ) -> None:
        if not shards:
            raise ValueError("Foreman needs at least one shard")
        self.engine = engine
        self.shards: List[Master] = list(shards)
        self.partitioner = (
            partitioner
            if partitioner is not None
            else TaskPartitioner(len(self.shards))
        )
        if self.partitioner.n_shards != len(self.shards):
            raise ValueError(
                f"partitioner fans out to {self.partitioner.n_shards} shards "
                f"but {len(self.shards)} were supplied"
            )
        self.name = "wq-foreman"
        #: All shards run under one DispatchConfig; shard 0 is the
        #: reference copy for config-derived reads (verify, health, …).
        self._reference = self.shards[0]
        #: Worker placement cursor for :meth:`master_for_pod`.
        self._next_worker_shard = 0
        #: Tasks moved between shards by :meth:`transfer_queued`.
        self.transfers = 0
        self._journal_cache: Optional[TransactionJournal] = None
        self._journal_cache_len = -1
        #: Shard indices whose work was re-homed by failover: they no
        #: longer gate :attr:`all_done` (their recoverable state lives
        #: on survivors) and new submits routed to them are redirected.
        self._retired: Set[int] = set()
        #: Retired shard index -> survivor index for submit redirects.
        self._redirects: Dict[int, int] = {}
        #: Called with ``(shard_index, stranded_workers)`` right after a
        #: single-shard crash — the snapshot is taken *before* the crash
        #: wipes the shard's worker table, so the failover coordinator
        #: knows exactly which workers went dark with the shard.
        self._shard_crash_listeners: Tuple[
            Callable[[int, List[Worker]], None], ...
        ] = ()
        #: Called with the shard index after :meth:`recover_shard`.
        self._shard_recover_listeners: Tuple[Callable[[int], None], ...] = ()

    # ------------------------------------------------------------- routing
    def shard_index_for(self, task: Task) -> int:
        """The partition assignment, with failover redirects applied: a
        submit routed to a retired shard lands on the survivor that
        adopted its work instead (chains resolve — a survivor that later
        retired forwards again)."""
        idx = self.partitioner.shard_for(task.id)
        seen: Set[int] = set()
        while idx in self._redirects and idx not in seen:
            seen.add(idx)
            idx = self._redirects[idx]
        return idx

    def shard_for(self, task: Task) -> Master:
        return self.shards[self.shard_index_for(task)]

    def submit(self, task: Task) -> None:
        self.shard_for(task).submit(task)

    def submit_many(self, tasks: List[Task]) -> None:
        for task in tasks:
            self.submit(task)

    def master_for_pod(self, pod) -> Master:
        """Shard assignment for a freshly started worker pod: straight
        round-robin over the *available* shards, so supply spreads
        evenly no matter which nodes the scheduler picked and a crashed
        shard stops receiving fresh workers. Deterministic because pod
        start order is (the simulation is). Falls back to plain
        round-robin when no shard is available (the pod's worker polls
        until its assigned master comes back)."""
        for _ in range(len(self.shards)):
            shard = self.shards[self._next_worker_shard]
            self._next_worker_shard = (
                self._next_worker_shard + 1
            ) % len(self.shards)
            if shard.available:
                return shard
        return shard

    def transfer_queued(self, task: Task, dst: Master) -> bool:
        """Rebalance: move a *queued* task to another shard's queue
        front. The task must not be running — in-flight work crosses
        shards through the checkpoint path (migrate out of the source
        worker, transfer, resume on a destination worker), never by
        teleporting an execution. Returns False if the task is not
        waiting in any shard's queue.

        The hand-off is journaled as FAILOVER_OUT on the source and
        FAILOVER_IN on the destination — the same re-home records the
        failover coordinator writes — so a crash on *either* side
        replays to the post-transfer truth: the source forgets the task
        it gave away, and a destination that dies mid-flight carries
        the task in its own log for the next failover to re-home."""
        src = None
        for shard in self.shards:
            if shard.queue.has_id(task.id):
                src = shard
                break
        if src is None or src is dst:
            return False
        src._dequeue(task)
        src.failover_out(task)
        progress = task.progress_s if task.progress_s > 0 else None
        dst.journal.record_failover_in(
            self.engine.now, task, placement="ready", progress=progress
        )
        dst._handed_off.discard(task.id)
        dst._enqueue_front(task)
        dst._schedule_dispatch()
        self.transfers += 1
        return True

    # ----------------------------------------------------------- callbacks
    def on_complete(self, fn: CompletionCallback) -> None:
        for shard in self.shards:
            shard.on_complete(fn)

    def on_abandoned(self, fn: Callable[[Task], None]) -> None:
        for shard in self.shards:
            shard.on_abandoned(fn)

    def add_migration_listener(self, fn: Callable) -> None:
        for shard in self.shards:
            shard.add_migration_listener(fn)

    def add_worker_lost_listener(self, fn: Callable[[Worker], None]) -> None:
        for shard in self.shards:
            shard.add_worker_lost_listener(fn)

    def add_shard_crash_listener(
        self, fn: Callable[[int, List[Worker]], None]
    ) -> None:
        """Register for single-shard crashes: called with
        ``(shard_index, stranded_workers)`` after :meth:`crash_shard`."""
        self._shard_crash_listeners = self._shard_crash_listeners + (fn,)

    def add_shard_recover_listener(self, fn: Callable[[int], None]) -> None:
        """Register for single-shard recoveries (:meth:`recover_shard`)."""
        self._shard_recover_listeners = self._shard_recover_listeners + (fn,)

    # ------------------------------------------------- worker-scoped routing
    def evacuate_worker(
        self, worker: Worker, tasks: Optional[List[Task]] = None
    ) -> List[Task]:
        return worker.master.evacuate_worker(worker, tasks)

    def evacuate(self, pairs: List[Tuple[Worker, Task]]) -> List[Task]:
        """Route each (worker, task) run to the shard owning the worker;
        shard iteration order keeps the requeue deterministic."""
        requeued: List[Task] = []
        for shard in self.shards:
            mine = [(w, t) for w, t in pairs if w.master is shard]
            if mine:
                requeued.extend(shard.evacuate(mine))
        return requeued

    def migration_arrived(
        self,
        worker: Worker,
        task: Task,
        new_progress: float,
        lost_s: float,
        started_at: Optional[float] = None,
    ) -> bool:
        return worker.master.migration_arrived(
            worker, task, new_progress, lost_s, started_at
        )

    def worker_unreachable(self, worker: Worker) -> None:
        """Partition notice routed to the shard that owns the worker."""
        worker.master.worker_unreachable(worker)

    # ------------------------------------------------------------ lifecycle
    def pause(self) -> None:
        for shard in self.shards:
            shard.pause()

    def resume(self) -> None:
        for shard in self.shards:
            shard.resume()

    def crash(self, *, restart_delay_s: Optional[float] = None) -> None:
        for shard in self.shards:
            shard.crash(restart_delay_s=restart_delay_s)

    def recover(self, *, replay: Optional[bool] = None) -> None:
        for shard in self.shards:
            shard.recover(replay=replay)

    def crash_shard(
        self, i: int, *, restart_delay_s: Optional[float] = None
    ) -> None:
        """Take down one shard (the single-shard fault the chaos layer
        injects). The crash keeps the workers it cut off (see
        ``Master._orphaned``), and that list goes to the shard-crash
        listeners — the failover coordinator needs to know which
        workers are stranded.
        Unlike :meth:`Master.crash`, the optional restart is scheduled
        through :meth:`recover_shard` so the foreman's failover
        bookkeeping (retire/redirect state, recover listeners) stays
        consistent whichever way the shard comes back. Workers an
        earlier crash cut off that had not reconnected yet still poll
        this shard, so they count as stranded too."""
        shard = self.shards[i]
        if shard.crashed:
            return
        shard.crash()
        stranded = list(shard._orphaned.values())
        for fn in self._shard_crash_listeners:
            fn(i, stranded)
        if restart_delay_s is not None:
            self.engine.call_in(restart_delay_s, self.recover_shard, i)

    def recover_shard(self, i: int, *, replay: Optional[bool] = None) -> None:
        """Bring one shard back. A shard that was failed over meanwhile
        un-retires: its journal replay already discarded the re-homed
        entries (FAILOVER_OUT records), so it rejoins empty-handed and
        new submits route to it again."""
        shard = self.shards[i]
        if not shard.crashed:
            return
        shard.recover(replay=replay)
        self._retired.discard(i)
        self._redirects.pop(i, None)
        for fn in self._shard_recover_listeners:
            fn(i)

    def retire_shard(self, i: int, survivor: int) -> None:
        """Mark a dead shard's recoverable state as moved to survivors:
        it stops gating :attr:`all_done` (nothing of it is coming back)
        and new submits hashed to it land on ``survivor`` instead.
        Reversed by :meth:`recover_shard` if the shard ever returns."""
        self._retired.add(i)
        self._redirects[i] = survivor

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "Foreman":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------ aggregate state
    @property
    def available(self) -> bool:
        """One reachable shard keeps the logical master available —
        a single crashed shard is degraded capacity, not total loss."""
        return any(s.available for s in self.shards)

    @property
    def degraded(self) -> bool:
        return not all(s.available for s in self.shards)

    @property
    def any_crashed(self) -> bool:
        """At least one shard is down — the plane is degraded (some
        partition of the queue is unreachable) but not necessarily lost."""
        return any(s.crashed for s in self.shards)

    @property
    def all_crashed(self) -> bool:
        """Every shard is down — the logical master is actually gone."""
        return all(s.crashed for s in self.shards)

    @property
    def all_done(self) -> bool:
        """Every live shard drained. Retired shards (dead, failed over)
        are skipped: their recoverable work was re-homed onto survivors,
        so an empty plane must not wait forever on a master that is
        never coming back."""
        return all(
            s.all_done
            for i, s in enumerate(self.shards)
            if i not in self._retired
        )

    @property
    def monitor(self):
        """The shared (global) resource monitor all shards feed."""
        return self._reference.monitor

    @property
    def link(self):
        return self._reference.link

    @property
    def health(self):
        return self._reference.health

    @property
    def verify(self) -> bool:
        return self._reference.verify

    @property
    def value_faults(self):
        return self._reference.value_faults

    @property
    def max_retries(self) -> int:
        return self._reference.max_retries

    @max_retries.setter
    def max_retries(self, value: int) -> None:
        for shard in self.shards:
            shard.max_retries = value

    @property
    def journal(self) -> TransactionJournal:
        """The merged shard journals (recomputed only when a shard has
        appended since the last read)."""
        total = sum(len(s.journal) for s in self.shards)
        if self._journal_cache is None or self._journal_cache_len != total:
            self._journal_cache = merge_journals(s.journal for s in self.shards)
            self._journal_cache_len = total
        return self._journal_cache

    def stats(self) -> MasterStats:
        """The degraded-mode aggregate: reachable shards only. A paused
        or crashed shard's numbers are unreachable (its queue may even
        have been wiped), exactly as a partitioned sub-pool's would be;
        summing what answers matches per-shard ground truth."""
        live = [s.stats() for s in self.shards if s.available]
        return MasterStats(
            time=self.engine.now,
            waiting=sum(s.waiting for s in live),
            running=sum(s.running for s in live),
            done=sum(s.done for s in live),
            workers_connected=sum(s.workers_connected for s in live),
            workers_idle=sum(s.workers_idle for s in live),
            workers_busy=sum(s.workers_busy for s in live),
            workers_draining=sum(s.workers_draining for s in live),
        )

    # ------------------------------------------------------- task listings
    @property
    def queue(self) -> List[Task]:
        return [t for s in self.shards for t in s.queue]

    @property
    def running(self) -> Dict[int, Task]:
        merged: Dict[int, Task] = {}
        for shard in self.shards:
            merged.update(shard.running)
        return merged

    @property
    def done(self) -> List[Task]:
        """Completions across all shards in *merged-journal* order
        (complete-record time, ties by shard index): replaying
        :attr:`journal` yields completions in exactly this sequence, so
        the aggregate view and the merged log agree record for record —
        the property the journal-replay invariant checks. Each shard's
        ``done[i]`` aligns with its i-th complete record counted from
        the journal's tail (a cold restart rebuilds ``done`` from
        scratch while the log keeps the forgotten prefix). A *crashed*
        shard's in-memory ledger was wiped with the rest of its tables,
        but its completions are durable — they were delivered upstream
        before the crash — so while it is down (or retired for good)
        the ledger is read straight off its journal instead."""
        keyed: List[Tuple[float, int, int, Task]] = []
        for idx, shard in enumerate(self.shards):
            completes = [
                rec for rec in shard.journal.records if rec.op == "complete"
            ]
            if shard.crashed:
                for pos, rec in enumerate(completes):
                    keyed.append((rec.time, idx, pos, rec.task))
                continue
            offset = len(completes) - len(shard.done)
            for pos, task in enumerate(shard.done):
                at = offset + pos
                when = (
                    completes[at].time if 0 <= at < len(completes) else float("inf")
                )
                keyed.append((when, idx, pos, task))
        keyed.sort(key=lambda item: (item[0], item[1], item[2]))
        return [task for _, _, _, task in keyed]

    @property
    def abandoned(self) -> List[Task]:
        return [t for s in self.shards for t in s.abandoned]

    @property
    def workers(self) -> Dict[str, Worker]:
        merged: Dict[str, Worker] = {}
        for shard in self.shards:
            merged.update(shard.workers)
        return merged

    @property
    def _unclaimed(self) -> Dict[int, Task]:
        merged: Dict[int, Task] = {}
        for shard in self.shards:
            merged.update(shard._unclaimed)
        return merged

    def waiting_tasks(self) -> List[Task]:
        return [t for s in self.shards for t in s.waiting_tasks()]

    def running_tasks(self) -> List[Task]:
        return [t for s in self.shards for t in s.running_tasks()]

    def connected_workers(self) -> List[Worker]:
        return [w for s in self.shards for w in s.connected_workers()]

    def idle_workers(self) -> List[Worker]:
        return [w for s in self.shards for w in s.idle_workers()]

    # --------------------------------------------------- aggregate counters
    # Each DISPATCH_COUNTERS name is a summing property (``_shard_sum``,
    # installed after the class).
    @property
    def tasks_rehomed(self) -> int:
        """Tasks adopted from dead shards by failover (sum of the
        per-shard ``tasks_rehomed_in`` intake counters)."""
        return sum(s.tasks_rehomed_in for s in self.shards)

    # ---------------------------------------------------- recovery markers
    @property
    def last_crash_at(self) -> Optional[float]:
        stamps = [s.last_crash_at for s in self.shards if s.last_crash_at is not None]
        return max(stamps) if stamps else None

    @property
    def last_recovered_at(self) -> Optional[float]:
        stamps = [
            s.last_recovered_at for s in self.shards if s.last_recovered_at is not None
        ]
        return max(stamps) if stamps else None

    @property
    def first_completion_after_recovery_at(self) -> Optional[float]:
        stamps = [
            s.first_completion_after_recovery_at
            for s in self.shards
            if s.first_completion_after_recovery_at is not None
        ]
        return min(stamps) if stamps else None

    # ----------------------------------------------------------- accounting
    def goodput_core_s(self) -> float:
        return sum(s.goodput_core_s() for s in self.shards)

    def clean_goodput_core_s(self) -> float:
        return sum(s.clean_goodput_core_s() for s in self.shards)

    def cores_in_use(self) -> float:
        return sum(s.cores_in_use() for s in self.shards if s.available)

    def cores_waiting(self) -> float:
        return sum(s.cores_waiting() for s in self.shards if s.available)

    def supplied_cores(self) -> float:
        return sum(s.supplied_cores() for s in self.shards if s.available)


def _shard_sum(name: str) -> property:
    """A Foreman property summing counter ``name`` over every shard.
    No ``int()``: int counters stay int and float counters stay float."""

    def total(self: Foreman) -> float:
        return sum(getattr(s, name) for s in self.shards)

    total.__name__ = name
    total.__qualname__ = f"Foreman.{name}"
    return property(total, doc=f"``{name}`` summed over the shards.")


for _name in DISPATCH_COUNTERS:
    setattr(Foreman, _name, _shard_sum(_name))


@dataclass(frozen=True, slots=True)
class FailoverConfig:
    """Knobs of the shard-failover protocol.

    ``grace_s`` separates a transient crash (the shard's pod restarts
    and replays its own journal — the PR 3 story, no foreman action
    needed) from permanent loss: only a shard still dark when the grace
    expires is failed over. The default clears the chaos layer's
    standard 60 s crash-restart delay, so an ordinarily-restarting
    shard never triggers a spurious re-home.

    ``rebalance_interval_s`` arms the starvation-repair tick: static
    partitioning can strand a live shard with queued work and *zero*
    workers while another shard holds idle supply (chaos kills workers
    shard-asymmetrically), and shard-local dispatch would deadlock
    there forever. The tick moves the starved queue to shards that have
    idle workers, through the journaled :meth:`Foreman.transfer_queued`
    path. ``None`` disables it."""

    grace_s: float = 90.0
    rebalance_interval_s: Optional[float] = 15.0


class FailoverCoordinator:
    """Re-homes a dead shard's stranded work onto the survivors.

    Subscribes to the foreman's shard-crash/recover notifications. On a
    crash it arms a one-shot grace timer; if the shard is still down
    when the timer fires, the coordinator

    1. replays the dead shard's journal (its PV outlives the process)
       to reconstruct exactly what is recoverable: the queued tasks in
       pre-crash order and the unclaimed in-flight set, with banked
       checkpoint progress;
    2. re-homes both onto surviving shards round-robin — queued tasks
       re-enter a survivor's queue, in-flight tasks park in a
       survivor's unclaimed set so their (still running) workers can be
       adopted on reconnect, with a grace sweep requeueing whatever
       never reports back;
    3. journals the move as FAILOVER_OUT on the dead shard's log and
       FAILOVER_IN on the destination's, so the merged journal folds to
       the post-failover truth and a later restart of the dead shard
       replays to a state *without* the moved entries (no
       double-dispatch);
    4. re-points the stranded workers' master references at survivors
       and nudges their reconnect poll, so the dead shard's supply —
       and any results or checkpoints it is still holding — lands on
       the masters that now own the tasks. Stale deliveries are
       rejected by the ordinary at-most-once canonical-attempt guards.

    Finally the shard is *retired*: it stops gating the foreman's
    ``all_done`` and new submits hashed to it redirect to a survivor.
    A retired shard that recovers anyway un-retires empty-handed.
    """

    def __init__(
        self,
        engine: Engine,
        foreman: Foreman,
        config: Optional[FailoverConfig] = None,
        *,
        tracer=None,
        metrics=None,
    ) -> None:
        self.engine = engine
        self.foreman = foreman
        self.config = config if config is not None else FailoverConfig()
        self.tracer = tracer
        #: Dead shards actually failed over (grace expired, work moved).
        self.failovers = 0
        #: Tasks re-homed across all failovers (queued + in-flight).
        self.tasks_rehomed = 0
        #: Stranded workers re-pointed at survivor shards.
        self.workers_reattached = 0
        #: Grace expiries that found no survivor to re-home onto.
        self.failovers_aborted = 0
        #: Queued tasks moved off starved shards by the rebalance tick.
        self.tasks_rebalanced = 0
        self._stopped = False
        #: Per-shard crash token; recovery or a fresh crash bumps it so
        #: a stale grace timer no-ops (the transient-crash distinction).
        self._tokens: Dict[int, int] = {}
        #: Worker snapshot per crashed shard (taken pre-wipe).
        self._stranded: Dict[int, List[Worker]] = {}
        self._c_failovers = None
        self._c_rehomed = None
        if metrics is not None:
            self._c_failovers = metrics.counter(
                "shard_failovers_total",
                "Dead shards whose recoverable work was re-homed",
            )
            self._c_rehomed = metrics.counter(
                "tasks_rehomed_total",
                "Tasks moved off dead shards onto survivors",
            )
        foreman.add_shard_crash_listener(self._shard_crashed)
        foreman.add_shard_recover_listener(self._shard_recovered)
        if self.config.rebalance_interval_s is not None:
            self.engine.call_in(
                self.config.rebalance_interval_s, self._rebalance_tick
            )

    def stop(self) -> None:
        """Disarm the rebalance tick (armed timers no-op)."""
        self._stopped = True

    # ----------------------------------------------------------- detection
    def _shard_crashed(self, i: int, stranded: List[Worker]) -> None:
        token = self._tokens.get(i, 0) + 1
        self._tokens[i] = token
        self._stranded[i] = stranded
        self.engine.call_in(self.config.grace_s, self._grace_expired, i, token)

    def _shard_recovered(self, i: int) -> None:
        # Invalidate any armed grace timer: the shard came back on its
        # own, so this was a transient crash and replay owns recovery.
        self._tokens[i] = self._tokens.get(i, 0) + 1
        self._stranded.pop(i, None)

    def _owned_elsewhere(self, task: Task, dead_idx: int) -> bool:
        """A live shard other than the dead one already holds the task
        (queued, running, or unclaimed): the dead shard's journal view
        is stale and the task must not be re-homed."""
        for j, other in enumerate(self.foreman.shards):
            if j == dead_idx:
                continue
            if (
                other.queue.has_id(task.id)
                or task.id in other.running
                or task.id in other._unclaimed
            ):
                return True
        return False

    # ----------------------------------------------------------- rebalance
    def _rebalance_tick(self) -> None:
        if self._stopped:
            return
        self._rebalance()
        self.engine.call_in(
            self.config.rebalance_interval_s, self._rebalance_tick
        )

    def _rebalance(self) -> None:
        """Starvation repair: a live shard with queued work but no
        workers at all can never dispatch (supply is shard-local), so
        its queue moves — through the journaled transfer path — to the
        live shards that do hold idle workers, round-robin. Deliberately
        narrow: shards with *any* worker are left alone, so ordinary
        skew keeps draining locally and fidelity is untouched."""
        shards = self.foreman.shards
        starved = [
            s
            for s in shards
            if s.available and s.queue and not s.connected_workers()
        ]
        if not starved:
            return
        targets = [
            s for s in shards if s.available and s.idle_workers()
        ]
        if not targets:
            return
        cursor = 0
        for src in starved:
            for task in list(src.queue):
                dst = targets[cursor % len(targets)]
                cursor += 1
                if self.foreman.transfer_queued(task, dst):
                    self.tasks_rebalanced += 1
        if self.tracer is not None and self.tracer.enabled and cursor:
            self.tracer.emit(
                "wq",
                "shard.rebalance",
                moved=cursor,
                starved=len(starved),
                targets=len(targets),
            )

    # ------------------------------------------------------------ failover
    def _grace_expired(self, i: int, token: int) -> None:
        if self._tokens.get(i) != token:
            return  # recovered meanwhile, or a fresh crash re-armed
        shard = self.foreman.shards[i]
        if not shard.crashed:
            return  # recovered without the foreman noticing (defensive)
        survivors = [
            (j, s)
            for j, s in enumerate(self.foreman.shards)
            if j != i and s.available
        ]
        if not survivors:
            # Nowhere to re-home yet: every other shard is down too (a
            # whole-plane crash landed inside the grace window). Look
            # again one grace period later — the others restart on
            # their own, and the dead shard's work must not strand.
            self.failovers_aborted += 1
            if not self._stopped:
                self.engine.call_in(
                    self.config.grace_s, self._grace_expired, i, token
                )
            return
        state = shard.journal.replay()
        stranded = self._stranded.pop(i, [])
        # A fresh pod assigned while no shard was up registers with the
        # dark shard anyway (its table or, once cut off, its orphans):
        # it is as stranded as the workers the crash itself cut off.
        known = {w.name for w in stranded}
        for worker in chain(shard.workers.values(), shard._orphaned.values()):
            if worker.name not in known:
                known.add(worker.name)
                stranded.append(worker)
        # Assign surviving workers to survivor shards first, and note
        # which tasks each one is still bound to (live runs, held
        # results, held checkpoints). A task and the worker holding it
        # MUST land on the same survivor: if the worker's held result
        # arrived at shard A while shard B owned the re-homed entry, B
        # would requeue — and re-run — an already-completed task.
        reattach: List[Tuple[Worker, int]] = []
        affinity: Dict[int, int] = {}
        for offset, worker in enumerate(stranded):
            if worker.state not in (WorkerState.READY, WorkerState.DRAINING):
                continue  # died while the shard was dark
            slot = offset % len(survivors)
            reattach.append((worker, slot))
            for tid in worker.unfinished_task_ids():
                affinity.setdefault(tid, slot)
        cursor = 0
        rehomed = 0

        def pick(task: Task) -> Tuple[int, Master]:
            nonlocal cursor
            slot = affinity.get(task.id)
            if slot is None:
                slot = cursor % len(survivors)
                cursor += 1
            return survivors[slot]

        # Queued work first, in the dead shard's pre-crash queue order;
        # in-flight (unclaimed) work after, so its workers can still be
        # adopted by the destination on reconnect. Anything the replay
        # surfaces that another shard already owns (or that completed)
        # is the dead shard's stale view of history, not strandable
        # work — re-homing it would double-dispatch.
        for task in state.ready:
            if task.result is not None or self._owned_elsewhere(task, i):
                continue
            _, dst = pick(task)
            shard.failover_out(task)
            dst.failover_in(task, placement="ready")
            rehomed += 1
        sweep: Set[int] = set()
        for task in state.unclaimed.values():
            if task.result is not None or self._owned_elsewhere(task, i):
                continue
            j, dst = pick(task)
            shard.failover_out(task)
            dst.failover_in(task, placement="unclaimed")
            sweep.add(j)
            rehomed += 1
        for j in sorted(sweep):
            # Same contract as post-recovery adoption: whatever no
            # worker reclaims inside the grace window requeues.
            dst = self.foreman.shards[j]
            self.engine.call_in(
                dst.recovery_grace_s, dst._requeue_unclaimed, dst._incarnation
            )
        for worker, slot in reattach:
            _, dst = survivors[slot]
            if not worker._detached:
                # Registered with the dark shard: drop that link first,
                # or the reconnect below would find nothing to redo.
                worker.master_lost()
            shard.unregister_worker(worker)
            shard._orphaned.pop(worker.name, None)
            worker.master = dst
            self.workers_reattached += 1
            # The worker's own backoff poll would find the new master
            # within RECONNECT_MAX_S; the nudge just reconnects it now.
            # A concurrent stale poll sees ``_detached`` False and drops.
            self.engine.call_in(0.0, worker._try_reconnect)
        self.foreman.retire_shard(i, survivors[0][0])
        self.failovers += 1
        self.tasks_rehomed += rehomed
        if self._c_failovers is not None:
            self._c_failovers.inc()
        if self._c_rehomed is not None and rehomed:
            self._c_rehomed.inc(rehomed)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "shard.failover",
                shard=shard.name,
                rehomed=rehomed,
                queued=len(state.ready),
                unclaimed=len(state.unclaimed),
                workers=len(stranded),
                survivors=len(survivors),
            )
