"""The master's replayable transaction journal (crash recovery).

CCTools' Makeflow/Work Queue survive manager crashes by appending every
state transition to an on-disk transaction log and replaying it on
restart; the paper's §V-A deployment gives the master pod a persistent
volume for exactly this. :class:`TransactionJournal` is that log: the
master appends a record at each transition (submit / dispatch / retry /
complete / abandon, plus exhaustion escalations), and
:meth:`TransactionJournal.replay` folds the records back into the state
a restarted master needs — the ready queue in its exact pre-crash order
(retries re-enter at the front, like the live queue), completed results
for the category statistics, per-task retry counters, and the set of
``(task_id, attempt)`` deliveries already accepted, which makes result
redelivery from still-running workers idempotent.

Tasks that were dispatched but neither completed nor retried by crash
time are *unclaimed*: their worker may still be running them. The
recovered master re-adopts them as workers reconnect and requeues
whatever is left when the reconnect grace window closes.

Replay with ``completions=False`` models a **cold restart** — the log
was lost and only the submitted task list (re-fed by the client) can be
reconstructed: every submitted task re-enters the queue, statistics and
retry counters start empty, and already-completed tasks re-execute. The
recovery experiment measures what that costs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.cluster.resources import ResourceVector
from repro.wq.task import Task, TaskResult

#: Valid journal operations, in no particular order.
OPS = (
    "submit", "dispatch", "retry", "complete", "abandon", "escalate",
    "checkpoint", "migrate_out", "migrate_in",
    "verify_fail", "quarantine", "unquarantine",
    "failover_out", "failover_in",
)


class JournalRecord(NamedTuple):
    """One appended state transition."""

    op: str
    time: float
    #: The task object stands in for its serialized form on the PV; the
    #: simulation keeps object identity so replay recovers the same
    #: tasks the workflow manager holds. Worker-scoped records
    #: (quarantine/unquarantine) carry no task.
    task: Optional[Task]
    #: ``task.attempts`` at record time (dispatch: the attempt being
    #: started; retry: the post-increment counter).
    attempt: int = 0
    #: Completion records carry the result (the log stores its fields).
    result: Optional[TaskResult] = None
    #: Escalation records carry the post-exhaustion allocation floor.
    escalate_to: Optional[ResourceVector] = None
    #: Migration records carry banked progress: checkpoint — the
    #: execute-seconds the accepted snapshot preserves; migrate_in —
    #: the progress the new attempt resumes from.
    progress: Optional[float] = None
    #: Integrity records carry the worker involved: verify_fail — the
    #: worker whose delivery failed content-digest verification;
    #: quarantine/unquarantine — the worker changing health state.
    worker: Optional[str] = None
    #: Failover-in records carry where the re-homed task landed on the
    #: surviving shard: ``"ready"`` (was queued on the dead shard) or
    #: ``"unclaimed"`` (was in flight; its worker may reattach).
    placement: Optional[str] = None


@dataclass
class ReplayedState:
    """What :meth:`TransactionJournal.replay` reconstructs."""

    #: The ready queue in pre-crash order.
    ready: List[Task] = field(default_factory=list)
    #: Dispatched but unresolved at crash time: task id -> task. Their
    #: workers may still be running them.
    unclaimed: Dict[int, Task] = field(default_factory=dict)
    #: Completed (task, result) pairs in completion order — replaying
    #: them through the monitor reproduces the category statistics
    #: exactly (same observations, same order).
    completions: List[Tuple[Task, TaskResult]] = field(default_factory=list)
    abandoned: List[Task] = field(default_factory=list)
    #: (category, floor) exhaustion escalations in occurrence order.
    escalations: List[Tuple[str, ResourceVector]] = field(default_factory=list)
    #: Last journaled retry counter per task id.
    attempts: Dict[int, int] = field(default_factory=dict)
    #: Count of submit records (restores ``Master.tasks_submitted``).
    submitted: int = 0
    #: ``(task_id, attempt)`` keys already accepted — the idempotency
    #: set that suppresses duplicate result deliveries after recovery.
    delivered: Set[Tuple[int, int]] = field(default_factory=set)
    #: Last banked checkpoint progress per task id (execute-seconds a
    #: resumed attempt skips); restored onto recovered tasks.
    progress: Dict[int, float] = field(default_factory=dict)
    #: Ids of tasks this log handed to another shard (FAILOVER_OUT not
    #: since undone by a FAILOVER_IN) — their outcome belongs elsewhere.
    handed_off: Set[int] = field(default_factory=set)
    #: Workers quarantined (and not since unquarantined) at crash time,
    #: in quarantine order — the recovered master keeps distrusting them.
    quarantined: List[str] = field(default_factory=list)


class TransactionJournal:
    """Append-only log of master state transitions."""

    def __init__(self) -> None:
        self.records: List[JournalRecord] = []
        self.appends = 0
        #: Times :meth:`replay` ran (diagnostic).
        self.replays = 0

    def __len__(self) -> int:
        return len(self.records)

    # -------------------------------------------------------------- appends
    def _append(self, record: JournalRecord) -> None:
        self.records.append(record)
        self.appends += 1

    def record_submit(self, time: float, task: Task) -> None:
        self._append(JournalRecord("submit", time, task))

    def record_dispatch(self, time: float, task: Task) -> None:
        self._append(JournalRecord("dispatch", time, task, attempt=task.attempts))

    def record_retry(self, time: float, task: Task) -> None:
        """The task re-entered the queue front (worker loss, failed
        attempt past its backoff, or post-crash unclaimed requeue)."""
        self._append(JournalRecord("retry", time, task, attempt=task.attempts))

    def record_escalate(
        self, time: float, task: Task, escalate_to: ResourceVector
    ) -> None:
        self._append(
            JournalRecord(
                "escalate", time, task, attempt=task.attempts, escalate_to=escalate_to
            )
        )

    def record_complete(self, time: float, task: Task, result: TaskResult) -> None:
        self._append(
            JournalRecord("complete", time, task, attempt=result.attempts, result=result)
        )

    def record_abandon(self, time: float, task: Task) -> None:
        self._append(JournalRecord("abandon", time, task, attempt=task.attempts))

    def record_checkpoint(self, time: float, task: Task, progress: float) -> None:
        """An accepted checkpoint banked ``progress`` execute-seconds
        for the task (the snapshot now lives on the master's PV)."""
        self._append(
            JournalRecord(
                "checkpoint", time, task, attempt=task.attempts, progress=progress
            )
        )

    def record_migrate_out(self, time: float, task: Task) -> None:
        """The migrating task left its worker and re-entered the queue
        front. Like a retry, but no attempt burned — migration is
        voluntary, not a failure."""
        self._append(JournalRecord("migrate_out", time, task, attempt=task.attempts))

    def record_migrate_in(self, time: float, task: Task, progress: float) -> None:
        """The task was dispatched resuming from banked progress —
        the dispatch record of a migrated attempt."""
        self._append(
            JournalRecord(
                "migrate_in", time, task, attempt=task.attempts, progress=progress
            )
        )

    def record_verify_fail(self, time: float, task: Task, worker: str) -> None:
        """A delivered result (or checkpoint) failed content-digest
        verification: the attempt is void and never reaches COMPLETE.
        The worker name feeds post-mortem blame attribution."""
        self._append(
            JournalRecord(
                "verify_fail", time, task, attempt=task.attempts, worker=worker
            )
        )

    def record_quarantine(self, time: float, worker: str) -> None:
        """The health ledger quarantined a worker: its runs were pulled
        and dispatch stops trusting it until probation."""
        self._append(JournalRecord("quarantine", time, None, worker=worker))

    def record_unquarantine(self, time: float, worker: str) -> None:
        """A quarantined worker entered probation and may take work again."""
        self._append(JournalRecord("unquarantine", time, None, worker=worker))

    def record_failover_out(self, time: float, task: Task) -> None:
        """The foreman's failover coordinator re-homed this task away
        from this (dead) shard. Written to the dead shard's PV log so a
        later restart replays to a state *without* the task — a shard
        that recovers after failover must not double-dispatch work that
        now lives on a survivor."""
        self._append(JournalRecord("failover_out", time, task, attempt=task.attempts))

    def record_failover_in(
        self,
        time: float,
        task: Task,
        *,
        placement: str,
        progress: Optional[float] = None,
    ) -> None:
        """A survivor shard adopted a task re-homed from a dead shard.
        ``placement`` records whether it re-entered the ready queue or
        the unclaimed set (its worker may still reattach); ``progress``
        carries any banked checkpoint so the move preserves it."""
        if placement not in ("ready", "unclaimed"):
            raise ValueError(f"unknown failover placement {placement!r}")
        self._append(
            JournalRecord(
                "failover_in",
                time,
                task,
                attempt=task.attempts,
                progress=progress,
                placement=placement,
            )
        )

    # --------------------------------------------------------------- digest
    def digest(self) -> str:
        """SHA-256 over a canonical serialization of every record.

        ``repr(float)`` round-trips exactly, so two journals digest
        equal iff every op, timestamp, task identity, attempt counter,
        result field, and escalation floor matches bit-for-bit — the
        fixed-seed fidelity oracle that proves an optimization preserved
        the master's entire observable transition history. Task ids are
        renumbered by first appearance, and that renumbering is the
        canonical form: ids are unique but not run-local (they come
        from a process-wide counter), so two same-seed runs in one
        process digest equal.
        """
        h = hashlib.sha256()
        canon: Dict[int, int] = {}
        for rec in self.records:
            # Worker-scoped records (quarantine/unquarantine) carry no
            # task; a fixed placeholder keeps the canonical form total.
            if rec.task is not None:
                tid = str(canon.setdefault(rec.task.id, len(canon)))
            else:
                tid = "-"
            parts = [rec.op, repr(rec.time), tid, str(rec.attempt)]
            if rec.result is not None:
                r = rec.result
                parts += [
                    r.worker_name,
                    repr(r.submit_time),
                    repr(r.dispatch_time),
                    repr(r.start_time),
                    repr(r.finish_time),
                    repr(r.execute_seconds),
                    repr(r.measured_resources.cores),
                    repr(r.measured_resources.memory_mb),
                    repr(r.measured_resources.disk_mb),
                    str(r.attempts),
                ]
            if rec.escalate_to is not None:
                e = rec.escalate_to
                parts += [repr(e.cores), repr(e.memory_mb), repr(e.disk_mb)]
            if rec.progress is not None:
                parts.append(repr(rec.progress))
            if rec.worker is not None:
                parts.append(rec.worker)
            if rec.placement is not None:
                parts.append(rec.placement)
            h.update("|".join(parts).encode())
            h.update(b"\n")
        return h.hexdigest()

    # --------------------------------------------------------------- replay
    def replay(self, *, completions: bool = True) -> ReplayedState:
        """Fold the log into the state a restarted master resumes from.

        ``completions=False`` is the cold-restart ablation: only submit
        records are honoured (the client re-feeds its task list), so
        completed work is forgotten and will re-execute.
        """
        self.replays += 1
        state = ReplayedState()
        if not completions:
            for rec in self.records:
                if rec.op == "submit":
                    state.submitted += 1
                    state.ready.append(rec.task)
            return state
        # Failover records may interleave across shards in a merged log:
        # the destination's FAILOVER_IN can fold before the source's
        # FAILOVER_OUT when both carry the same timestamp and the
        # destination's shard index sorts first. A hand-off writes both
        # records at one instant, so pairing them by (task id, time)
        # makes the fold commute — an OUT leaves the task in place only
        # when its own IN already folded. An IN from an *earlier*
        # hand-off never excuses a later OUT: a shard that adopted a
        # task and then lost it to failover must replay without it.
        early_in: Dict[Tuple[int, float], int] = {}
        folded_out: Dict[Tuple[int, float], int] = {}
        for rec in self.records:
            task = rec.task
            if rec.op == "submit":
                state.submitted += 1
                state.ready.append(task)
            elif rec.op == "dispatch":
                self._remove(state.ready, task)
                state.unclaimed[task.id] = task
                state.attempts[task.id] = rec.attempt
            elif rec.op == "retry":
                state.unclaimed.pop(task.id, None)
                self._remove(state.ready, task)
                state.ready.insert(0, task)
                state.attempts[task.id] = rec.attempt
            elif rec.op == "escalate":
                assert rec.escalate_to is not None
                state.escalations.append((task.category, rec.escalate_to))
            elif rec.op == "complete":
                assert rec.result is not None
                state.unclaimed.pop(task.id, None)
                self._remove(state.ready, task)
                state.completions.append((task, rec.result))
                state.delivered.add((task.id, rec.attempt))
            elif rec.op == "abandon":
                state.unclaimed.pop(task.id, None)
                self._remove(state.ready, task)
                state.abandoned.append(task)
            elif rec.op == "checkpoint":
                assert rec.progress is not None
                state.progress[task.id] = rec.progress
            elif rec.op == "migrate_out":
                # Exactly a retry's queue motion, without the attempt
                # bump: the task left its worker and waits at the front.
                state.unclaimed.pop(task.id, None)
                self._remove(state.ready, task)
                state.ready.insert(0, task)
                state.attempts[task.id] = rec.attempt
            elif rec.op == "migrate_in":
                assert rec.progress is not None
                self._remove(state.ready, task)
                state.unclaimed[task.id] = task
                state.attempts[task.id] = rec.attempt
                state.progress[task.id] = rec.progress
            elif rec.op == "failover_out":
                key = (task.id, rec.time)
                if early_in.get(key, 0):
                    # Its IN already folded: the task now sits where the
                    # destination put it.
                    early_in[key] -= 1
                else:
                    # The task left this shard's recoverable state. On
                    # the source shard's own journal the matching IN is
                    # never present, so replay after a post-failover
                    # restart drops the re-homed entry instead of
                    # double-dispatching.
                    folded_out[key] = folded_out.get(key, 0) + 1
                    state.unclaimed.pop(task.id, None)
                    self._remove(state.ready, task)
                    state.handed_off.add(task.id)
            elif rec.op == "failover_in":
                key = (task.id, rec.time)
                if folded_out.get(key, 0):
                    folded_out[key] -= 1
                else:
                    early_in[key] = early_in.get(key, 0) + 1
                state.handed_off.discard(task.id)
                state.unclaimed.pop(task.id, None)
                self._remove(state.ready, task)
                if rec.placement == "unclaimed":
                    state.unclaimed[task.id] = task
                else:
                    state.ready.insert(0, task)
                state.attempts[task.id] = rec.attempt
                if rec.progress is not None:
                    state.progress[task.id] = rec.progress
            elif rec.op == "verify_fail":
                # The voided attempt's queue motion is carried by the
                # retry/abandon record that follows; nothing folds here.
                pass
            elif rec.op == "quarantine":
                assert rec.worker is not None
                if rec.worker not in state.quarantined:
                    state.quarantined.append(rec.worker)
            elif rec.op == "unquarantine":
                assert rec.worker is not None
                if rec.worker in state.quarantined:
                    state.quarantined.remove(rec.worker)
        return state

    @staticmethod
    def _remove(ready: List[Task], task: Task) -> None:
        for i, t in enumerate(ready):
            if t is task:
                del ready[i]
                return
