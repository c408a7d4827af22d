"""DispatchCore — the master's pure queue/run-table/retry state machine.

The Work Queue master splits into two layers:

* :class:`DispatchCore` (this module) — the pure dispatch state machine:
  the FIFO queue with retry-to-front semantics, the run table, the
  retry/backoff/abandon ladder, speculation, health/integrity policy,
  completion acceptance, and every aggregate counter — each transition
  journalled through :class:`~repro.wq.journal.TransactionJournal` so
  replay (and the fixed-seed fidelity oracle) see one canonical history;
* :class:`~repro.wq.master.Master` — the thin session/connection shell
  over it: worker registration, partition liveness clocks, outage
  pause/resume, and crash recovery.

The split is behavior-preserving by construction: every method body
moved verbatim, so a fixed seed drives bit-identical journals through
either entry point. Sharding (:mod:`repro.wq.sharding`) builds on this
layer — N cores, each owning a disjoint task partition, aggregated by a
Foreman into the one logical view HTA consumes.

Dispatch protocol (the explicit surface a driver exercises):

``submit``    — a WAITING task enters the queue (journal: SUBMIT);
``dispatch``  — ``_schedule_dispatch`` drains the queue onto accepting
                workers (journal: DISPATCH, or MIGRATE_IN when resuming
                banked checkpoint progress);
``complete``  — ``task_finished`` delivers a result; acceptance is
                idempotent on ``(task_id, attempt)`` (journal: COMPLETE);
``retry``     — ``task_failed`` / ``worker_lost`` requeue at the front,
                burning an attempt (journal: RETRY, ABANDON past the
                retry budget);
``evacuate``  — ``evacuate_worker`` / ``migration_arrived`` pull runs
                off doomed workers without burning attempts (journal:
                RETRY / CHECKPOINT + MIGRATE_OUT).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import chain
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine, PeriodicTask
from repro.telemetry.events import NULL_TRACER, Tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.wq.estimator import AllocationEstimator, MonitorEstimator
from repro.wq.faults import (
    RetryPolicy,
    SpeculationConfig,
    TaskFault,
    TaskFaultModel,
    ValueFaultModel,
)
from repro.wq.health import HealthConfig, HealthLedger
from repro.wq.journal import TransactionJournal
from repro.wq.link import Link
from repro.wq.monitor import ResourceMonitor
from repro.wq.task import Task, TaskResult, TaskState
from repro.wq.worker import Worker, WorkerState

CompletionCallback = Callable[[Task, TaskResult], None]


@dataclass(frozen=True, slots=True)
class MasterStats:
    """A point-in-time snapshot of queue state (HTA's reference input)."""

    time: float
    waiting: int
    running: int
    done: int
    workers_connected: int
    workers_idle: int
    workers_busy: int
    workers_draining: int

    @property
    def backlog(self) -> int:
        return self.waiting + self.running


@dataclass(frozen=True, slots=True)
class DispatchConfig:
    """The state-machine knobs of one :class:`DispatchCore`, grouped in
    a value object so shard masters can be stamped out of the same
    configuration (and so the legacy flat-keyword :class:`Master`
    constructor has one canonical home to assemble into)."""

    max_retries: int = 5
    #: Optional task-level fault injection (see :mod:`repro.wq.faults`).
    fault_model: Optional[TaskFaultModel] = None
    #: Optional value-fault injection (silent result/checkpoint
    #: corruption; see :class:`~repro.wq.faults.ValueFaultModel`).
    value_faults: Optional[ValueFaultModel] = None
    #: Content-digest verification on result and checkpoint delivery.
    verify: bool = True
    #: Per-worker health ledger driving quarantine + blame attribution;
    #: None disables the whole policy layer.
    health: Optional[HealthConfig] = None
    retry_policy: Optional[RetryPolicy] = None
    #: Straggler mitigation; None disables speculative re-execution.
    speculation: Optional[SpeculationConfig] = None
    #: Recover from the journal (True) or cold-restart (False).
    replay_journal: bool = True
    #: Post-recovery reconnect window before unclaimed tasks requeue.
    recovery_grace_s: float = 45.0
    #: Connected-but-unreachable grace before a worker is declared lost.
    liveness_timeout_s: float = 90.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


def placement_signature(task: Task) -> Tuple:
    """Everything a dispatch pass reads to size and seat ``task``:
    category drives the estimate, footprint/min_allocation/declared
    drive the sizing. Queued tasks sharing a signature (and a priority)
    are interchangeable for placement."""
    return (task.category, task.footprint, task.min_allocation, task.declared)


#: A bucket entry: ``(position, task)``.
_Entry = Tuple[int, Task]


class TaskQueue:
    """The master's wait queue: FIFO with retry-to-front, bucketed by
    placement signature.

    Callers read it like a list — ``len``, truthiness, ``in`` and
    iteration in exact queue order — and only :class:`DispatchCore`
    mutates it. Each task sits in one FIFO bucket per ``(priority,
    signature)``, tagged with a position: back appends count up from 0
    and front inserts count down from -1, so position order *is* queue
    order, retry-to-front included. A dispatch pass merges bucket heads
    instead of walking the queue (:meth:`dispatch`).
    """

    __slots__ = ("_front", "_back", "_buckets", "_next_back", "_next_front", "rev")

    def __init__(self) -> None:
        #: Front inserts by task id; insertion order is reverse queue order.
        self._front: Dict[int, Task] = {}
        #: Back appends by task id; insertion order is queue order.
        self._back: Dict[int, Task] = {}
        self._buckets: Dict[Tuple, Deque[_Entry]] = {}
        self._next_back = 0
        self._next_front = -1
        #: Bumped on every mutation; lets O(queue) folds such as
        #: :meth:`DispatchCore.cores_waiting` memoize between mutations.
        self.rev = 0

    # ----------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._front) + len(self._back)

    def __bool__(self) -> bool:
        return bool(self._front) or bool(self._back)

    def __iter__(self) -> Iterator[Task]:
        # Every front insert precedes every back append.
        return chain(reversed(self._front.values()), self._back.values())

    def __contains__(self, task: Task) -> bool:
        return self._front.get(task.id) is task or self._back.get(task.id) is task

    def has_id(self, task_id: int) -> bool:
        return task_id in self._front or task_id in self._back

    # ---------------------------------------------------------- mutation
    def push_back(self, task: Task) -> None:
        self._back[task.id] = task
        self._bucket(task).append((self._next_back, task))
        self._next_back += 1
        self.rev += 1

    def push_front(self, task: Task) -> None:
        self._front[task.id] = task
        self._bucket(task).appendleft((self._next_front, task))
        self._next_front -= 1
        self.rev += 1

    def remove(self, task: Task) -> None:
        """Remove ``task`` if queued: O(1) when absent or at its
        bucket's head, O(bucket) otherwise."""
        if (
            self._front.pop(task.id, None) is None
            and self._back.pop(task.id, None) is None
        ):
            return
        key = (task.priority, placement_signature(task))
        bucket = self._buckets[key]
        for i, (_, queued) in enumerate(bucket):
            if queued is task:
                del bucket[i]
                break
        if not bucket:
            del self._buckets[key]
        self.rev += 1

    def clear(self) -> None:
        self._front.clear()
        self._back.clear()
        self._buckets.clear()
        self.rev += 1

    def _bucket(self, task: Task) -> Deque[_Entry]:
        key = (task.priority, placement_signature(task))
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
        return bucket

    # ---------------------------------------------------------- dispatch
    def dispatch(self, place: Callable[[Task], bool]) -> None:
        """One dispatch pass: offer tasks to ``place`` in dispatch order
        — higher priority first, queue order within a priority — and
        drop the ones it seats.

        Within one synchronous pass worker capacity only shrinks, so a
        task that found no seat proves the same for every later task
        with its signature, at any priority; that signature is skipped
        for the rest of the pass. Seated tasks are therefore always a
        prefix of their bucket, and only bucket heads are ever read: a
        pass costs O(placed + signatures), not O(queue).
        """
        buckets = self._buckets
        heap = [(-key[0], bucket[0][0], key) for key, bucket in buckets.items()]
        heapify(heap)
        unplaceable: Set[Tuple] = set()
        while heap:
            key = heap[0][2]
            if key[1] in unplaceable:
                heappop(heap)
                continue
            bucket = buckets[key]
            pos, task = bucket[0]
            if not place(task):
                unplaceable.add(key[1])
                heappop(heap)
                continue
            bucket.popleft()
            del (self._front if pos < 0 else self._back)[task.id]
            self.rev += 1
            if bucket:
                heapreplace(heap, (-key[0], bucket[0][0], key))
            else:
                del buckets[key]
                heappop(heap)


class DispatchCore:
    """The pure queue/run-table/retry state machine behind the master.

    Dispatch policy (§II-B: "during runtime, the master finds available
    workers and assigns jobs to them"):

    1. Tasks leave the queue in FIFO order (retried tasks re-enter at
       the front so a worker loss doesn't starve them).
    2. Each task's allocation comes from the installed
       :class:`~repro.wq.estimator.AllocationEstimator`; ``None`` means
       the whole worker (the conservative / probing path).
    3. Among workers that fit, prefer one that already caches the
       task's cacheable inputs, then the one with least available
       capacity (best-fit, keeping large slots open for whole-worker
       probes).
    """

    def __init__(
        self,
        engine: Engine,
        link: Link,
        *,
        config: Optional[DispatchConfig] = None,
        estimator: Optional[AllocationEstimator] = None,
        monitor: Optional[ResourceMonitor] = None,
        name: str = "wq-master",
        start_available: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        config = config if config is not None else DispatchConfig()
        #: The immutable knob bundle this core was built from; shard
        #: builders replicate masters off it.
        self.config = config
        self.engine = engine
        self.link = link
        #: Structured event stream (no-op sink unless telemetry is on).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Per-category latency histograms; skipped entirely when no
        #: registry was supplied (tracing-off runs stay lean).
        self._h_queue_wait = (
            metrics.histogram(
                "wq_task_queue_wait_seconds",
                "submit-to-dispatch latency per category",
            )
            if metrics is not None
            else None
        )
        self._h_execute = (
            metrics.histogram(
                "wq_task_execute_seconds",
                "execution time of accepted results per category",
            )
            if metrics is not None
            else None
        )
        self.name = name
        self.max_retries = config.max_retries
        #: Optional task-level fault injection (see :mod:`repro.wq.faults`).
        self.fault_model = config.fault_model
        #: Optional value-fault injection (silent result/checkpoint
        #: corruption; see :class:`~repro.wq.faults.ValueFaultModel`).
        self.value_faults = config.value_faults
        #: Content-digest verification on result and checkpoint delivery.
        #: With no value faults armed it is pure policy (nothing can be
        #: corrupt), so the default True costs integrity-free runs nothing.
        self.verify = config.verify
        #: Per-worker health ledger driving quarantine + blame
        #: attribution; None disables the whole policy layer.
        self.health: Optional[HealthLedger] = (
            HealthLedger(config.health) if config.health is not None else None
        )
        self.retry_policy = (
            config.retry_policy if config.retry_policy is not None else RetryPolicy()
        )
        #: Straggler mitigation; None disables speculative re-execution.
        self.speculation = config.speculation
        self.monitor = monitor if monitor is not None else ResourceMonitor()
        self.estimator: AllocationEstimator = (
            estimator if estimator is not None else MonitorEstimator(self.monitor)
        )
        #: The wait queue (read-only outside this class; see
        #: :class:`TaskQueue`).
        self.queue = TaskQueue()
        self.workers: Dict[str, Worker] = {}
        self.running: Dict[int, Task] = {}
        self.done: List[Task] = []
        # ------------------------------------------- dispatch-path indexes
        #: The subset of ``workers`` whose ``accepting`` flag is true,
        #: grouped by ``(capacity, available)`` and maintained through
        #: :meth:`worker_status_changed`, so a placement sizes and fits
        #: once per group instead of once per worker (full workers all
        #: share one group). The best-fit key ends in the unique worker
        #: name, so the winner is independent of iteration order.
        self._accepting: Dict[
            Tuple[ResourceVector, ResourceVector], Dict[str, Worker]
        ] = {}
        #: Last-seen (accepting group or None, idle, busy, draining) per
        #: worker; the deltas keep the index and counters below exact.
        self._worker_flags: Dict[str, Tuple[Optional[Tuple], bool, bool, bool]] = {}
        self._n_idle = 0
        self._n_busy = 0
        self._n_draining = 0
        #: ``(queue.rev, value)`` memo of :meth:`cores_waiting`.
        self._cores_waiting_cache: Tuple[int, float] = (-1, 0.0)
        #: Tasks given up on after max_retries worker losses.
        self.abandoned: List[Task] = []
        # Callback registries are tuples so notification loops iterate a
        # natural snapshot instead of copying a list per completion.
        self._abandoned_callbacks: Tuple[Callable[[Task], None], ...] = ()
        self._callbacks: Tuple[CompletionCallback, ...] = ()
        self._dispatch_pending = False
        self.tasks_submitted = 0
        self.tasks_requeued = 0
        # ------------------------------------------ fault-tolerance state
        #: Tasks waiting out a retry backoff (not in the queue yet).
        self._backoff_pending = 0
        #: Straggler speculation: original task id -> live clone, and the
        #: reverse map (clone id -> original).
        self._spec: Dict[int, Task] = {}
        self._spec_origin: Dict[int, Task] = {}
        self._spec_loop: Optional[PeriodicTask] = None
        self.tasks_failed = 0
        self.tasks_exhausted = 0
        self.escalations = 0
        self.tasks_speculated = 0
        self.speculation_wins = 0
        self.speculation_losses = 0
        # --------------------------------------------------- integrity state
        #: Result deliveries rejected by content-digest verification.
        self.verify_fails = 0
        #: Checkpoint deliveries whose snapshot failed verification.
        self.checkpoint_verify_fails = 0
        #: Corrupted results accepted as COMPLETE (only possible with
        #: verification off — the ground-truth damage counter the
        #: integrity experiment contrasts).
        self.corrupted_completes = 0
        #: Core-seconds of corrupt completed work, subtracted from
        #: :meth:`goodput_core_s` by :meth:`clean_goodput_core_s`.
        self.corrupted_goodput_core_s = 0.0
        #: Workers quarantined / re-admitted on probation by the ledger.
        self.quarantines = 0
        self.unquarantines = 0
        #: Tasks isolated by blame attribution (poison-task verdicts).
        self.tasks_poisoned = 0
        #: Deliveries rejected because the worker was quarantined.
        self.quarantined_rejected = 0
        #: Monotonic token per worker name; a probation timer fires only
        #: if no newer quarantine superseded it.
        self._quarantine_seq: Dict[str, int] = {}
        #: Worker names the replayed journal says were quarantined at
        #: crash time; re-applied as those workers reconnect.
        self._recovered_quarantined: Set[str] = set()
        #: Core-seconds burned by killed attempts and cancelled duplicates.
        self.wasted_core_s = 0.0
        #: False while the master process is down (its pod restarting).
        #: Dispatch pauses and completions buffer at the workers until
        #: the master resumes — the paper's StatefulSet + persistent
        #: volume design makes exactly this recovery possible (§V-A).
        #: Pass ``start_available=False`` when the master is hosted in a
        #: pod that has not started yet (MasterDeployment does).
        self.available = start_available
        self._buffered_completions: List[tuple[Worker, Task]] = []
        self.outages = 0
        # ------------------------------------------- crash-recovery state
        #: Append-only transaction log of state transitions; models the
        #: log Work Queue keeps on the master pod's persistent volume.
        #: Always written (appends are cheap); :attr:`replay_journal`
        #: decides whether recovery reads it.
        self.journal = TransactionJournal()
        #: Recover from the journal (True) or cold-restart (False — the
        #: ablation where the log is lost and completed work re-runs).
        self.replay_journal = config.replay_journal
        #: After recovery, tasks dispatched pre-crash whose workers have
        #: not reconnected get requeued once this window closes. Must
        #: exceed the workers' maximum reconnect-poll gap
        #: (:attr:`Worker.RECONNECT_MAX_S`) so surviving runs are adopted
        #: rather than duplicated.
        self.recovery_grace_s = config.recovery_grace_s
        self.crashed = False
        self.crashes = 0
        #: Completed tasks re-executed because recovery forgot them.
        self.tasks_rerun = 0
        #: Result deliveries dropped by the (task_id, attempt) idempotency
        #: check or because the recovered master no longer knows the attempt.
        self.duplicate_results = 0
        self.last_crash_at: Optional[float] = None
        self.last_recovered_at: Optional[float] = None
        self.first_completion_after_recovery_at: Optional[float] = None
        self.recovered_queue_depth = 0
        #: Dispatched-but-unresolved tasks reconstructed by replay, keyed
        #: by task id; re-adopted as their workers reconnect.
        self._unclaimed: Dict[int, Task] = {}
        #: ``(task_id, attempt)`` results already accepted.
        self._delivered: Set[Tuple[int, int]] = set()
        #: Bumped on every crash; callbacks scheduled pre-crash carry the
        #: old value and turn into no-ops.
        self._incarnation = 0
        # ---------------------------------------------- partition liveness
        #: How long a connected-but-unreachable worker keeps its runs on
        #: the books before being declared lost. Must exceed the workers'
        #: maximum reconnect-poll gap (:attr:`Worker.RECONNECT_MAX_S`) so
        #: a healed partition re-adopts runs instead of duplicating them.
        self.liveness_timeout_s = config.liveness_timeout_s
        #: Unreachable-since timestamps, keyed by worker name; cleared on
        #: reconnect (not on heal — only the worker's re-registration
        #: proves the link is back).
        self._unreachable: Dict[str, float] = {}
        self.partitions_detected = 0
        self.workers_declared_lost = 0
        #: In-flight runs proactively pulled off doomed (preemption-
        #: noticed) workers inside the grace window.
        self.tasks_evacuated = 0
        # ------------------------------------------------------- migration
        #: Checkpoints accepted (task requeued resuming from progress)
        #: and dropped as stale (attempt superseded while shipping).
        self.migrations_accepted = 0
        self.migrations_stale = 0
        #: Tasks adopted from a dead shard by the failover coordinator
        #: (queued and unclaimed both count; zero on unsharded masters).
        self.tasks_rehomed_in = 0
        #: Called on every checkpoint delivery with
        #: ``(worker, task, accepted, ship_s)`` — the migration
        #: coordinator paces its fluid policies off this.
        self._migration_listeners: Tuple[Callable, ...] = ()
        #: Called with the worker at the top of :meth:`worker_lost`, so
        #: the coordinator can write off in-flight checkpoints that died
        #: with their node.
        self._worker_lost_listeners: Tuple[Callable[[Worker], None], ...] = ()

    # ------------------------------------------------------------ callbacks
    def on_complete(self, fn: CompletionCallback) -> None:
        self._callbacks = self._callbacks + (fn,)

    def on_abandoned(self, fn: Callable[[Task], None]) -> None:
        """Register for tasks permanently given up after max_retries."""
        self._abandoned_callbacks = self._abandoned_callbacks + (fn,)

    def add_migration_listener(self, fn: Callable) -> None:
        """Register for checkpoint deliveries: called with
        ``(worker, task, accepted, ship_s)`` after every
        :meth:`migration_arrived`."""
        self._migration_listeners = self._migration_listeners + (fn,)

    def add_worker_lost_listener(self, fn: Callable[[Worker], None]) -> None:
        """Register for worker deaths (called before the requeue loop)."""
        self._worker_lost_listeners = self._worker_lost_listeners + (fn,)

    # ------------------------------------------------------- queue mutation
    def _enqueue_back(self, task: Task) -> None:
        self.queue.push_back(task)

    def _enqueue_front(self, task: Task) -> None:
        self.queue.push_front(task)

    def _dequeue(self, task: Task) -> None:
        """Remove ``task`` from the queue if present (O(1) when absent —
        the common case on the completion path)."""
        self.queue.remove(task)

    def _reset_queue(self, tasks: List[Task]) -> None:
        self.queue.clear()
        for task in tasks:
            self.queue.push_back(task)

    # ------------------------------------------------------------- submit
    def submit(self, task: Task) -> None:
        if task.state is not TaskState.WAITING:
            raise RuntimeError(f"cannot submit task in state {task.state}")
        if task.submit_time is None:
            task.submit_time = self.engine.now
        self.tasks_submitted += 1
        self.journal.record_submit(self.engine.now, task)
        if self.tracer.enabled:
            self.tracer.emit(
                "wq", "task.submit", task.category, task_id=task.id
            )
        self._enqueue_back(task)
        self._ensure_speculation_loop()
        self._schedule_dispatch()

    def submit_many(self, tasks: List[Task]) -> None:
        for t in tasks:
            self.submit(t)

    # ------------------------------------------------------- worker caches
    def _refresh_worker_cache(self, worker: Worker) -> None:
        """Reconcile the accepting index and stat counters with one
        worker's live flags. Exact by construction: the old contribution
        is retired, the new one recomputed from the worker itself, and a
        worker no longer registered under its name contributes nothing."""
        name = worker.name
        old = self._worker_flags.pop(name, None)
        if old is not None:
            old_group, was_idle, was_busy, was_draining = old
            if old_group is not None:
                members = self._accepting[old_group]
                del members[name]
                if not members:
                    del self._accepting[old_group]
            if was_idle:
                self._n_idle -= 1
            if was_busy:
                self._n_busy -= 1
            if was_draining:
                self._n_draining -= 1
        if self.workers.get(name) is not worker:
            return
        group = (
            (worker.capacity, worker.available()) if worker.accepting else None
        )
        idle = worker.idle
        draining = worker.state is WorkerState.DRAINING
        busy = bool(worker.runs) and (
            worker.state is WorkerState.READY or draining
        )
        self._worker_flags[name] = (group, idle, busy, draining)
        if group is not None:
            members = self._accepting.get(group)
            if members is None:
                self._accepting[group] = {name: worker}
            else:
                members[name] = worker
        if idle:
            self._n_idle += 1
        if busy:
            self._n_busy += 1
        if draining:
            self._n_draining += 1

    def _reset_worker_caches(self) -> None:
        self._accepting.clear()
        self._worker_flags.clear()
        self._n_idle = 0
        self._n_busy = 0
        self._n_draining = 0

    # ------------------------------------------------------------ preemption
    def evacuate_worker(
        self, worker: Worker, tasks: Optional[List[Task]] = None
    ) -> List[Task]:
        """A preemption notice doomed this worker: proactively pull its
        in-flight runs and requeue them at the front, inside the grace
        window, before the node is killed. Unlike :meth:`worker_lost`
        this is a planned migration, not a failure — it does not burn a
        retry attempt. ``tasks`` restricts the evacuation to a subset of
        the worker's runs (a grace-aware caller leaves nearly-finished
        runs racing the clock); None evacuates everything. Returns the
        requeued tasks; the caller drains the worker afterwards."""
        if tasks is None:
            victims = [run.task for run in list(worker.runs.values())]
        else:
            victims = [t for t in tasks if t.id in worker.runs]
        return self.evacuate([(worker, t) for t in victims])

    def evacuate(self, pairs: List[Tuple[Worker, Task]]) -> List[Task]:
        """Evacuate ``(worker, task)`` runs — possibly spanning several
        workers (every pod on a preempted node). Requeues in submit
        (seq) order: front-inserting in descending id order leaves the
        queue front ascending by id no matter how many workers evacuate
        in the same tick — and matches what journal replay (one
        ``insert(0)`` per retry record) reconstructs, record for
        record."""
        ordered = sorted(pairs, key=lambda pair: pair[1].id, reverse=True)
        requeued: List[Task] = []
        for worker, task in ordered:
            if task.id not in worker.runs:
                continue
            if task.result is not None or (
                task.speculation_of is None
                and self.running.get(task.id) is not task
            ):
                # A stale local copy: the task already completed, or the
                # master's books no longer bind it to an execution (it
                # was requeued while this worker was unreachable). Drop
                # the run without touching the ledgers.
                worker.cancel_run(task)
                continue
            worker.cancel_run(task)
            self.running.pop(task.id, None)
            self._charge_waste(task)
            if task.speculation_of is not None:
                # A speculative copy on a doomed worker: just forget it.
                self._drop_speculation_entry(task)
                task.state = TaskState.FAILED
                continue
            self.tasks_evacuated += 1
            self.tasks_requeued += 1
            task.reset_for_retry()
            self.journal.record_retry(self.engine.now, task)
            if self.tracer.enabled:
                self.tracer.emit(
                    "wq",
                    "task.retry",
                    task.category,
                    task_id=task.id,
                    reason="preemption",
                    attempt=task.attempts,
                    worker=worker.name,
                )
            self._enqueue_front(task)
            requeued.append(task)
        if requeued:
            self._schedule_dispatch()
        return requeued

    # -------------------------------------------------------------- failover
    def failover_out(self, task: Task) -> None:
        """Journal-only marker on a *dead* shard's PV: the foreman's
        failover coordinator re-homed ``task`` to a survivor. The live
        tables were already wiped by the crash, so nothing folds here —
        the record exists so that a post-failover restart replays to a
        state without the task (see journal replay's OUT/IN pairing)."""
        self.journal.record_failover_out(self.engine.now, task)

    def failover_in(
        self, task: Task, *, placement: str = "ready"
    ) -> None:
        """Adopt a task re-homed from a dead shard.

        ``placement="ready"`` re-enters the queue front (the task was
        waiting on the dead shard; front insertion mirrors the
        ``insert(0)`` this shard's own replay would reconstruct).
        ``placement="unclaimed"`` parks it in the unclaimed set: its
        worker may still be running it and will be adopted on reconnect
        by the ordinary :meth:`worker_reconnected` rules — the caller
        schedules a :meth:`_requeue_unclaimed` grace sweep so nothing
        stays stranded if the worker never returns. Banked checkpoint
        progress rides on the task object and is journaled so a crash
        of *this* shard replays the resume point."""
        progress = task.progress_s if task.progress_s > 0 else None
        self.journal.record_failover_in(
            self.engine.now, task, placement=placement, progress=progress
        )
        self.tasks_rehomed_in += 1
        if placement == "unclaimed":
            self._unclaimed[task.id] = task
        else:
            self._enqueue_front(task)
            self._schedule_dispatch()
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.failover_in",
                task.category,
                task_id=task.id,
                placement=placement,
                progress_s=task.progress_s,
            )

    # ------------------------------------------------------------- migration
    def migration_arrived(
        self,
        worker: Worker,
        task: Task,
        new_progress: float,
        lost_s: float,
        started_at: Optional[float] = None,
    ) -> bool:
        """A shipped checkpoint reached the master. At-most-once resume:
        the snapshot is accepted only while this worker's attempt is
        still the canonical one — the same ``_running_elsewhere`` guard
        that protects result delivery. A stale checkpoint (the task
        completed, was requeued by a liveness expiry, or is a
        speculative copy) is dropped without touching the ledgers.

        An accepted checkpoint banks ``new_progress`` on the task,
        journals CHECKPOINT + MIGRATE_OUT, charges only the un-banked
        tail (``lost_s``) as waste, cancels any speculative clone (it
        would race the resumed attempt to a double-completion), and
        requeues the task at the front — no attempt burned."""
        # Canonical = the master's books still bind this execution to
        # the delivering worker: live in ``running``, or waiting in the
        # post-recovery unclaimed set (same rule reconnect adoption
        # uses). A task requeued by a liveness expiry is neither, a
        # re-dispatched copy elsewhere trips ``_running_elsewhere``, and
        # a delivery while the task is still in the delivering worker's
        # own run table is a replay of an already-consumed snapshot (the
        # ship removes the run before any legitimate delivery).
        canonical = (
            self.running.get(task.id) is task
            or self._unclaimed.get(task.id) is task
        )
        accepted = not (
            task.result is not None
            or task.speculation_of is not None
            or not canonical
            or self._running_elsewhere(task, worker)
            or task.id in worker.runs
        )
        ship_s = (
            self.engine.now - started_at if started_at is not None else 0.0
        )
        if not accepted:
            task.checkpoint_corrupt = False
            self.migrations_stale += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "wq",
                    "task.migrate_stale",
                    task.category,
                    task_id=task.id,
                    worker=worker.name,
                )
            for fn in self._migration_listeners:
                fn(worker, task, False, ship_s)
            return False
        if task.checkpoint_corrupt and self.verify:
            # Content-digest verification rejected the snapshot: resuming
            # from it would poison the task, so discard it — the task
            # keeps its last *good* banked progress (at-most-once resume
            # holds: the rejected snapshot is consumed, never replayed)
            # and requeues at the front, no attempt burned. The execution
            # beyond the old bank is wasted along with the lost tail.
            task.checkpoint_corrupt = False
            self.checkpoint_verify_fails += 1
            self.journal.record_verify_fail(self.engine.now, task, worker.name)
            if self.tracer.enabled:
                self.tracer.emit(
                    "wq",
                    "task.checkpoint_verify_fail",
                    task.category,
                    task_id=task.id,
                    worker=worker.name,
                    discarded_progress_s=new_progress,
                )
            self._cancel_speculation_for(task)
            self.running.pop(task.id, None)
            self._unclaimed.pop(task.id, None)
            unbanked_s = max(0.0, new_progress - task.progress_s) + max(0.0, lost_s)
            if unbanked_s > 0:
                self.wasted_core_s += unbanked_s * self._billable_cores(task)
            task.reset_for_retry()
            self.journal.record_migrate_out(self.engine.now, task)
            self._enqueue_front(task)
            self._schedule_dispatch()
            for fn in self._migration_listeners:
                fn(worker, task, False, ship_s)
            return False
        task.checkpoint_corrupt = False
        self.migrations_accepted += 1
        # Satellite of the migration protocol: a live speculative clone
        # of the migrating task must die here — first-completion-wins
        # against a clone would complete the task while its resumed
        # attempt re-runs, double-completing the migrated attempt.
        self._cancel_speculation_for(task)
        self.running.pop(task.id, None)
        self._unclaimed.pop(task.id, None)
        if lost_s > 0:
            self.wasted_core_s += lost_s * self._billable_cores(task)
        task.progress_s = new_progress
        task.reset_for_retry()
        self.journal.record_checkpoint(self.engine.now, task, new_progress)
        self.journal.record_migrate_out(self.engine.now, task)
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.migrate_out",
                task.category,
                task_id=task.id,
                worker=worker.name,
                progress_s=new_progress,
                lost_s=lost_s,
                ship_s=ship_s,
            )
        self._enqueue_front(task)
        self._schedule_dispatch()
        for fn in self._migration_listeners:
            fn(worker, task, True, ship_s)
        return True

    def worker_lost(self, worker: Worker, lost_tasks: List[Task]) -> None:
        """A worker died (pod deleted). Requeue its tasks at the front;
        tasks that have already burned ``max_retries`` attempts are
        abandoned (reported through ``on_abandoned``)."""
        for fn in self._worker_lost_listeners:
            fn(worker)
        self.workers.pop(worker.name, None)
        self._refresh_worker_cache(worker)
        for task in reversed(lost_tasks):
            if task.result is not None:
                # Already completed (a requeued copy finished elsewhere,
                # or this worker's held result was delivered): nothing to
                # requeue, and bumping attempts would corrupt the ledger.
                continue
            self.running.pop(task.id, None)
            self._charge_waste(task)
            if task.speculation_of is not None:
                # A speculative copy died with its worker: drop it
                # silently; the original is still in flight.
                self._drop_speculation_entry(task)
                continue
            task.attempts += 1
            if task.attempts > self.max_retries:
                self._abandon(task)
                continue
            self.tasks_requeued += 1
            task.reset_for_retry()
            self.journal.record_retry(self.engine.now, task)
            if self.tracer.enabled:
                self.tracer.emit(
                    "wq",
                    "task.retry",
                    task.category,
                    task_id=task.id,
                    reason="worker_lost",
                    attempt=task.attempts,
                    worker=worker.name,
                )
            self._enqueue_front(task)
        if lost_tasks:
            self._schedule_dispatch()

    # ------------------------------------------------------------- failures
    def draw_fault(self, task: Task, allocation: ResourceVector):
        """Worker hook: the fate of this execution attempt (None = runs
        to successful completion)."""
        if self.fault_model is None:
            return None
        return self.fault_model.draw(task, allocation)

    def draw_result_corruption(self, task: Task) -> bool:
        """Worker hook: is this attempt's delivered payload silently
        corrupted? Always False without a value-fault model (and then no
        variate is consumed — integrity-free runs stay bit-identical)."""
        if self.value_faults is None:
            return False
        return self.value_faults.draw_result_corruption(task)

    def draw_checkpoint_corruption(self, task: Task) -> bool:
        """Worker hook: is this shipped checkpoint corrupted?"""
        if self.value_faults is None:
            return False
        return self.value_faults.draw_checkpoint_corruption(task)

    def task_failed(self, worker: Worker, task: Task, fault: TaskFault) -> None:
        """A task-level failure: nonzero exit (transient) or killed by
        the worker's allocation enforcement (exhaustion). Exhaustion
        escalates the task's and its category's allocation — Work
        Queue's first-allocation/max-allocation retry — then the task
        re-enters the queue after an exponential backoff."""
        self.running.pop(task.id, None)
        self.tasks_failed += 1
        self._charge_waste(task)
        # Time-to-outcome for the fast-fail detector, taken before the
        # retry reset clears the attempt's timing.
        runtime_s = (
            self.engine.now - task.start_time
            if task.start_time is not None
            else None
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.failed",
                task.category,
                task_id=task.id,
                kind=fault.kind,
                worker=worker.name,
                attempt=task.attempts,
            )
        if task.speculation_of is not None:
            # A speculative copy crashed: forget it, never retry it —
            # but the outcome still scores against the worker.
            self._drop_speculation_entry(task)
            self._health_failure(worker, task, runtime_s=runtime_s)
            return
        if fault.kind == "exhaustion" and fault.escalate_to is not None:
            self.tasks_exhausted += 1
            self.escalations += 1
            floor = task.min_allocation or ResourceVector.zero()
            task.min_allocation = floor.max_with(fault.escalate_to)
            self.monitor.observe_exhaustion(task.category, fault.escalate_to)
            self.journal.record_escalate(self.engine.now, task, fault.escalate_to)
        if self._health_failure(worker, task, runtime_s=runtime_s):
            return  # ruled poison and isolated; no retry
        task.attempts += 1
        if task.attempts > self.max_retries:
            self._abandon(task)
            return
        self.tasks_requeued += 1
        delay = self.retry_policy.backoff_s(task.attempts)
        task.reset_for_retry()
        if delay <= 0:
            self.journal.record_retry(self.engine.now, task)
            if self.tracer.enabled:
                self.tracer.emit(
                    "wq",
                    "task.retry",
                    task.category,
                    task_id=task.id,
                    reason=fault.kind,
                    attempt=task.attempts,
                )
            self._enqueue_front(task)
            self._schedule_dispatch()
        else:
            self._backoff_pending += 1
            self.engine.call_in(
                delay, self._requeue_after_backoff, task, self._incarnation
            )

    def _requeue_after_backoff(self, task: Task, incarnation: Optional[int] = None) -> None:
        if incarnation is not None and incarnation != self._incarnation:
            return  # scheduled before a crash; recovery re-owns the task
        self._backoff_pending -= 1
        if task.state is not TaskState.WAITING:
            return  # resolved meanwhile (e.g. its speculative copy won)
        self.journal.record_retry(self.engine.now, task)
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.retry",
                task.category,
                task_id=task.id,
                reason="backoff",
                attempt=task.attempts,
            )
        self._enqueue_front(task)
        self._schedule_dispatch()

    # ---------------------------------------------------- health / integrity
    def _health_failure(
        self, worker: Worker, task: Task, *, runtime_s: Optional[float]
    ) -> bool:
        """Score a failed (or verification-failed) attempt against the
        health ledger and act on its verdict. Returns True when the task
        was ruled poison and isolated — the caller must not retry it."""
        if self.health is None:
            return False
        verdict = self.health.record_failure(
            worker.name, task.id, runtime_s=runtime_s, now=self.engine.now
        )
        if verdict.quarantine_worker:
            self._quarantine_worker(worker)
        if verdict.poison_task and task.speculation_of is None:
            self._poison_task(task)
            return True
        return False

    def _poison_task(self, task: Task) -> None:
        """Blame attribution ruled this task poison: it failed on
        ``poison_k`` distinct healthy workers, so the input — not the
        pool — is at fault. Isolate it through the existing exhaustion
        escalation path (abandon + raise its category floor so HTA's
        planner prices its kin realistically) instead of letting it burn
        retries forever."""
        self.tasks_poisoned += 1
        self.escalations += 1
        floor = task.min_allocation or ResourceVector.zero()
        escalate_to = floor.max_with(task.footprint)
        task.min_allocation = escalate_to
        self.monitor.observe_exhaustion(task.category, escalate_to)
        self.journal.record_escalate(self.engine.now, task, escalate_to)
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.poisoned",
                task.category,
                task_id=task.id,
                attempts=task.attempts,
            )
        self._abandon(task)

    def _quarantine_worker(self, worker: Worker) -> None:
        """The health ledger condemned this worker: stop dispatching to
        it, evacuate its in-flight runs (deterministic id order, same as
        preemption evacuation), and schedule its probation re-entry."""
        if worker.quarantined:
            return
        worker.quarantined = True
        self.quarantines += 1
        self.journal.record_quarantine(self.engine.now, worker.name)
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "worker.quarantine",
                worker=worker.name,
            )
        self._refresh_worker_cache(worker)
        self.evacuate_worker(worker)
        probation_after = (
            self.health.config.probation_after_s if self.health else 0.0
        )
        if probation_after > 0:
            seq = self._quarantine_seq.get(worker.name, 0) + 1
            self._quarantine_seq[worker.name] = seq
            self.engine.call_in(
                probation_after,
                self._probation_due,
                worker,
                seq,
                self._incarnation,
            )

    def _probation_due(self, worker: Worker, seq: int, incarnation: int) -> None:
        """Quarantine aged out: re-admit the worker on probation. The
        ``seq`` token voids timers from superseded quarantines (the
        worker was re-quarantined, restarting the clock)."""
        if incarnation != self._incarnation or self.crashed:
            return
        if self._quarantine_seq.get(worker.name) != seq:
            return
        if not worker.quarantined:
            return
        if self.health is None or not self.health.begin_probation(worker.name):
            return
        worker.quarantined = False
        self.unquarantines += 1
        self.journal.record_unquarantine(self.engine.now, worker.name)
        if self.tracer.enabled:
            self.tracer.emit("wq", "worker.probation", worker=worker.name)
        if self.workers.get(worker.name) is worker:
            self._refresh_worker_cache(worker)
            self._schedule_dispatch()

    def _verification_failed(self, worker: Worker, task: Task) -> None:
        """Content-digest verification rejected a delivered result: the
        payload never reaches COMPLETE. The attempt is treated as a
        task-level failure — it burns an attempt, scores against the
        worker's health, and retries with the standard backoff — and is
        journalled as VERIFY_FAIL so replay carries the audit trail."""
        self.verify_fails += 1
        self.tasks_failed += 1
        runtime_s = (
            self.engine.now - task.start_time
            if task.start_time is not None
            else None
        )
        self.journal.record_verify_fail(self.engine.now, task, worker.name)
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.verify_fail",
                task.category,
                task_id=task.id,
                worker=worker.name,
                attempt=task.attempts,
            )
        if task.id in self._spec:
            # Satellite fix: a canonical result failing verification must
            # not leak its speculative clone — the clone still races, but
            # the books below reset the task to WAITING, so a later clone
            # completion would hit the stale-delivery guard and be
            # wasted. Cancel it and let the retry own the task.
            self.speculation_losses += 1
            self._cancel_speculation_for(task)
        self.running.pop(task.id, None)
        self._unclaimed.pop(task.id, None)
        self._dequeue(task)
        self._charge_waste(task)
        poisoned = self._health_failure(worker, task, runtime_s=runtime_s)
        task.payload_corrupt = False
        if poisoned:
            return
        task.attempts += 1
        if task.attempts > self.max_retries:
            self._abandon(task)
            return
        self.tasks_requeued += 1
        delay = self.retry_policy.backoff_s(task.attempts)
        task.reset_for_retry()
        if delay <= 0:
            self.journal.record_retry(self.engine.now, task)
            if self.tracer.enabled:
                self.tracer.emit(
                    "wq",
                    "task.retry",
                    task.category,
                    task_id=task.id,
                    reason="verify_fail",
                    attempt=task.attempts,
                )
            self._enqueue_front(task)
            self._schedule_dispatch()
        else:
            self._backoff_pending += 1
            self.engine.call_in(
                delay, self._requeue_after_backoff, task, self._incarnation
            )

    def _speculative_verify_failed(self, worker: Worker, clone: Task) -> None:
        """A speculative clone's result failed verification. Clones are
        never journalled, so no VERIFY_FAIL record — just drop the clone
        (the original is still in flight) and score the worker."""
        self.verify_fails += 1
        runtime_s = (
            self.engine.now - clone.start_time
            if clone.start_time is not None
            else None
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.verify_fail",
                clone.category,
                task_id=clone.id,
                worker=worker.name,
                speculative=True,
            )
        self.running.pop(clone.id, None)
        self._charge_waste(clone)
        self._drop_speculation_entry(clone)
        clone.state = TaskState.FAILED
        self._health_failure(worker, clone, runtime_s=runtime_s)

    def _abandon(self, task: Task) -> None:
        self._cancel_speculation_for(task)
        self.journal.record_abandon(self.engine.now, task)
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.abandon",
                task.category,
                task_id=task.id,
                attempts=task.attempts,
            )
        self.abandoned.append(task)
        for fn in self._abandoned_callbacks:
            fn(task)

    def _billable_cores(self, task: Task) -> float:
        """The core count an attempt of ``task`` is billed at: its true
        footprint, capped by the allocation it actually ran under. The
        single accounting rule behind every waste charge — the historical
        Master recomputed it inline at each call site, and the copies had
        already begun to drift apart before they were folded here."""
        cores = task.footprint.cores
        if task.allocation is not None:
            cores = min(cores, task.allocation.cores)
        return cores

    def _charge_waste(self, task: Task) -> None:
        """Account execution time burned by an attempt that will never
        produce a result (killed, failed, or a losing duplicate)."""
        if task.start_time is None or task.state is TaskState.DONE:
            return
        # A resumed attempt only ever executes the un-banked remainder,
        # so that is all a kill can waste (identical to ``execute_s``
        # while progress is zero).
        elapsed = min(self.engine.now - task.start_time, task.remaining_execute_s())
        if elapsed <= 0:
            return
        self.wasted_core_s += elapsed * self._billable_cores(task)

    def _worker_running(self, task_id: int) -> Optional[Worker]:
        for worker in self.workers.values():
            if task_id in worker.runs:
                return worker
        return None

    # ------------------------------------------------------------- dispatch
    def _schedule_dispatch(self) -> None:
        if not self._dispatch_pending:
            self._dispatch_pending = True
            self.engine.call_soon(self._dispatch)

    def _running_elsewhere(self, task: Task, worker: Worker) -> bool:
        """Is another registered worker currently executing this task?"""
        return any(
            task.id in w.runs for w in self.workers.values() if w is not worker
        )

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        if not self.queue or not self.available or not self._accepting:
            return
        # Higher priority first, queue order (retries at the front)
        # within a priority; see TaskQueue.dispatch for the cost.
        self.queue.dispatch(self._try_place)

    #: Sentinel distinguishing "capacity not sized yet" from "sized to
    #: None (task cannot fit this capacity at all)" in the dispatch memo.
    _UNSIZED = object()

    def _try_place(self, task: Task, exclude: Optional[Worker] = None) -> bool:
        best: Optional[Worker] = None
        best_alloc: Optional[ResourceVector] = None
        best_key = None
        estimator = self.estimator
        footprint = task.footprint
        min_allocation = task.min_allocation
        # The sized allocation depends on the task and the *capacity*, not
        # the worker; in the (typical) homogeneous fleet it is computed
        # once instead of once per candidate. None marks a capacity the
        # task can never fit.
        alloc_by_capacity: Dict[ResourceVector, Optional[ResourceVector]] = {}
        for (capacity, available), members in self._accepting.items():
            alloc = alloc_by_capacity.get(capacity, DispatchCore._UNSIZED)
            if alloc is DispatchCore._UNSIZED:
                alloc = estimator.allocation_for(task, capacity)
                if alloc is None:
                    alloc = capacity  # whole-worker (conservative/probe)
                else:
                    # Never allocate less than the task actually needs,
                    # and never more than the worker has in total.
                    alloc = alloc.max_with(footprint)
                    if min_allocation is not None:
                        # Escalated retry: grant the post-escalation
                        # size, capped at the whole worker so the task
                        # can still be placed somewhere.
                        alloc = (
                            alloc.max_with(min_allocation)
                            .min_with(capacity)
                            .max_with(footprint)
                        )
                    if not alloc.fits_in(capacity):
                        alloc = None
                alloc_by_capacity[capacity] = alloc
            if alloc is None or not alloc.fits_in(available):
                continue
            # Prefer cache hits; then best-fit by remaining cores. The
            # unique name tiebreak makes the winner independent of the
            # order the index is walked in.
            for worker in members.values():
                if worker is exclude or not worker.accepting:
                    continue
                key = (worker.has_cached(task), -available.cores, worker.name)
                if best_key is None or key > best_key:
                    best, best_alloc, best_key = worker, alloc, key
        if best is None or best_alloc is None:
            return False
        self.running[task.id] = task
        best.assign(task, best_alloc)
        if task.speculation_of is None:
            # Speculative copies are a master-local optimization; the
            # journal only tracks the canonical attempt. A dispatch
            # resuming from banked checkpoint progress journals
            # MIGRATE_IN so replay reconstructs the resumed progress.
            if task.progress_s > 0:
                self.journal.record_migrate_in(
                    self.engine.now, task, task.progress_s
                )
            else:
                self.journal.record_dispatch(self.engine.now, task)
        if self._h_queue_wait is not None and task.submit_time is not None:
            self._h_queue_wait.observe(
                self.engine.now - task.submit_time, category=task.category
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.dispatch",
                task.category,
                task_id=task.id,
                worker=best.name,
                attempt=task.attempts,
                speculative=task.speculation_of is not None,
                cores=best_alloc.cores,
            )
        return True

    # ---------------------------------------------------------- speculation
    def _ensure_speculation_loop(self) -> None:
        """Arm the straggler scan while work is in flight; the loop stops
        itself when the queue drains so an idle master leaves the event
        queue empty (drivers rely on that to detect completion)."""
        if self.speculation is None or self._spec_loop is not None:
            return
        self._spec_loop = PeriodicTask(
            self.engine, self.speculation.check_period_s, self._speculation_scan
        )

    def _speculation_scan(self):
        cfg = self.speculation
        assert cfg is not None
        if not self.running and not self.queue and not self._backoff_pending:
            self._spec_loop = None
            return False  # drained; re-armed by the next submit
        if not self.available:
            return None
        if self.queue:
            # Real work is waiting; speculation only uses capacity that
            # would otherwise sit idle (Hadoop's backup-task rule).
            return None
        for task in list(self.running.values()):
            if len(self._spec) >= cfg.max_live:
                break
            if task.speculation_of is not None or task.id in self._spec:
                continue
            if task.state is not TaskState.RUNNING or task.start_time is None:
                continue
            stats = self.monitor.category(task.category)
            if stats is None or stats.count < cfg.min_samples:
                continue
            mean = stats.mean_execute_s
            if mean <= 0:
                continue
            elapsed = self.engine.now - task.start_time
            if elapsed < max(cfg.min_age_s, cfg.slowdown_factor * mean):
                continue
            self._launch_speculative(task, mean)
        return None

    def _launch_speculative(self, original: Task, predicted_runtime: float) -> bool:
        """Re-execute a straggler on another worker, first-completion-wins.
        The copy is sized like the original but runs for the category's
        expected time (a healthy re-execution)."""
        clone = Task(
            original.category,
            execute_s=predicted_runtime,
            footprint=original.footprint,
            declared=original.declared,
            cpu_fraction=original.cpu_fraction,
            inputs=original.inputs,
            outputs=original.outputs,
            command=f"speculative:{original.command}",
            tag="speculative",
            priority=original.priority,
        )
        clone.speculation_of = original.id
        clone.min_allocation = original.min_allocation
        clone.submit_time = original.submit_time
        if not self._try_place(clone, exclude=self._worker_running(original.id)):
            return False
        self._spec[original.id] = clone
        self._spec_origin[clone.id] = original
        self.tasks_speculated += 1
        return True

    def _drop_speculation_entry(self, clone: Task) -> None:
        """Forget a speculative copy that died; the original continues."""
        original = self._spec_origin.pop(clone.id, None)
        if original is not None:
            self._spec.pop(original.id, None)

    def _cancel_speculation_for(self, original: Task) -> None:
        """The original resolved (completed or abandoned): abort its copy."""
        clone = self._spec.pop(original.id, None)
        if clone is None:
            return
        self._spec_origin.pop(clone.id, None)
        self.running.pop(clone.id, None)
        host = self._worker_running(clone.id)
        if host is not None:
            self._charge_waste(clone)
            host.cancel_run(clone)
        clone.state = TaskState.FAILED

    # ----------------------------------------------------------- completion
    def task_finished(self, worker: Worker, task: Task) -> None:
        if not self.available:
            # The worker holds the outputs until the master returns.
            self._buffered_completions.append((worker, task))
            return
        self._finalize_completion(worker, task)

    def _finalize_completion(self, worker: Worker, task: Task) -> None:
        if worker.quarantined:
            # Results from a quarantined worker are untrusted wholesale —
            # including ones held across a partition and redelivered
            # after the quarantine landed. Reject, and put the canonical
            # attempt (if this was it) back in the queue; the quarantine
            # evacuation already requeued anything it could see, so this
            # branch only fires for deliveries the evacuation could not
            # reach (held results, in-flight returns).
            self.quarantined_rejected += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "wq",
                    "task.quarantine_reject",
                    task.category,
                    task_id=task.id,
                    worker=worker.name,
                )
            if task.speculation_of is not None:
                self.running.pop(task.id, None)
                self._charge_waste(task)
                self._drop_speculation_entry(task)
                task.state = TaskState.FAILED
                return
            if (
                task.result is None
                and self.running.get(task.id) is task
                and not self._running_elsewhere(task, worker)
                and task.id not in worker.runs
            ):
                # Still the canonical attempt: requeue it, no attempt
                # burned (the worker is at fault, not the task).
                self.running.pop(task.id, None)
                self._charge_waste(task)
                self.tasks_requeued += 1
                task.reset_for_retry()
                self.journal.record_retry(self.engine.now, task)
                self._enqueue_front(task)
                self._schedule_dispatch()
            return
        if task.speculation_of is not None:
            self._finalize_speculative_win(worker, task)
            return
        key = (task.id, task.attempts)
        if task.result is not None or key in self._delivered:
            # Already accepted — a redelivery after recovery, or the
            # second half of a speculative pair. Idempotent drop.
            self._suppress_duplicate(task)
            return
        if task.dispatch_time is None or task.start_time is None:
            # A delivery for an attempt the recovered master no longer
            # recognises (a cold restart reset the task): drop it and
            # let the queued copy re-run.
            self.duplicate_results += 1
            self.running.pop(task.id, None)
            return
        if task.payload_corrupt:
            if self.verify:
                # Content-digest verification: a corrupted result never
                # reaches COMPLETE.
                self._verification_failed(worker, task)
                return
            # Verification off: the corruption sails through to COMPLETE
            # (the experiment's attribution-off baseline). Track it so
            # goodput can be split into clean and corrupted shares.
            self.corrupted_completes += 1
            self.corrupted_goodput_core_s += task.execute_s * task.footprint.cores
        # First-completion-wins: the original beat its speculative copy.
        if task.id in self._spec:
            self.speculation_losses += 1
            self._cancel_speculation_for(task)
        self.running.pop(task.id, None)
        self._unclaimed.pop(task.id, None)
        self._dequeue(task)
        task.state = TaskState.DONE
        task.finish_time = self.engine.now
        assert task.submit_time is not None
        assert task.dispatch_time is not None
        assert task.start_time is not None
        result = TaskResult(
            task_id=task.id,
            category=task.category,
            worker_name=worker.name,
            submit_time=task.submit_time,
            dispatch_time=task.dispatch_time,
            start_time=task.start_time,
            finish_time=task.finish_time,
            execute_seconds=task.execute_s,
            measured_resources=task.footprint,
            attempts=task.attempts,
        )
        task.result = result
        self._record_acceptance(task, result)
        self.done.append(task)
        self.monitor.record(result)
        for fn in self._callbacks:
            fn(task, result)
        self._schedule_dispatch()

    def _record_acceptance_telemetry(self, task: Task, result: TaskResult) -> None:
        if self._h_execute is not None:
            self._h_execute.observe(result.execute_seconds, category=result.category)
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "task.complete",
                result.category,
                task_id=task.id,
                worker=result.worker_name,
                attempts=result.attempts,
                execute_s=result.execute_seconds,
                # A speculative win completes the original with the
                # clone's timings and a bumped attempt count.
                speculative=result.attempts != task.attempts,
            )

    def _record_acceptance(self, task: Task, result: TaskResult) -> None:
        """Write-ahead bookkeeping for an accepted result: journal it,
        remember its (task_id, attempt) key, and stamp the first
        post-recovery completion (the recovery-latency marker)."""
        if self.health is not None:
            self.health.record_success(result.worker_name, task.id)
        self._delivered.add((task.id, result.attempts))
        self.journal.record_complete(self.engine.now, task, result)
        self._record_acceptance_telemetry(task, result)
        if (
            self.last_recovered_at is not None
            and self.first_completion_after_recovery_at is None
        ):
            self.first_completion_after_recovery_at = self.engine.now

    def _suppress_duplicate(self, task: Task) -> None:
        """A result arrived for a (task, attempt) the master has already
        accepted. Count it, release the bookkeeping, and drop it."""
        self.duplicate_results += 1
        self.running.pop(task.id, None)
        self._unclaimed.pop(task.id, None)
        if task.state is not TaskState.DONE:
            self.tasks_rerun += 1
            self._charge_waste(task)
            task.state = TaskState.DONE
        self._schedule_dispatch()

    def _finalize_speculative_win(self, worker: Worker, clone: Task) -> None:
        """A speculative copy finished first: cancel the straggling
        original wherever it is and complete *the original* with the
        copy's timings (the workflow manager only knows the original)."""
        if clone.payload_corrupt and self.verify:
            # A corrupt clone result must not win the race: drop the
            # clone and leave the original in flight.
            self._speculative_verify_failed(worker, clone)
            return
        self.running.pop(clone.id, None)
        original = self._spec_origin.pop(clone.id, None)
        if original is None:
            return  # already resolved (stale copy)
        self._spec.pop(original.id, None)
        self.speculation_wins += 1
        self.running.pop(original.id, None)
        self._dequeue(original)
        host = self._worker_running(original.id)
        if host is not None:
            self._charge_waste(original)
            host.cancel_run(original)
        clone.state = TaskState.DONE
        original.state = TaskState.DONE
        original.finish_time = self.engine.now
        assert original.submit_time is not None
        assert clone.dispatch_time is not None
        assert clone.start_time is not None
        result = TaskResult(
            task_id=original.id,
            category=original.category,
            worker_name=worker.name,
            submit_time=original.submit_time,
            dispatch_time=clone.dispatch_time,
            start_time=clone.start_time,
            finish_time=self.engine.now,
            execute_seconds=clone.execute_s,
            measured_resources=original.footprint,
            attempts=original.attempts + 1,
        )
        if clone.payload_corrupt:
            # Verification off: the fake completion wins the race and
            # its corrupted payload is accepted as the task's result.
            self.corrupted_completes += 1
            self.corrupted_goodput_core_s += (
                result.execute_seconds * result.measured_resources.cores
            )
        original.result = result
        self._unclaimed.pop(original.id, None)
        self._record_acceptance(original, result)
        self.done.append(original)
        self.monitor.record(result)
        for fn in self._callbacks:
            fn(original, result)
        self._schedule_dispatch()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release periodic machinery (the speculation scan loop) so a
        finished run leaves the engine's event queue empty."""
        if self._spec_loop is not None:
            self._spec_loop.stop()
            self._spec_loop = None

    # ----------------------------------------------------------------- stats
    def stats(self) -> MasterStats:
        # O(1): the counters are maintained exactly by the worker status
        # hooks (see _refresh_worker_cache) instead of recounted over
        # every connected worker per accounting sample.
        return MasterStats(
            time=self.engine.now,
            waiting=len(self.queue),
            running=len(self.running),
            done=len(self.done),
            workers_connected=len(self.workers),
            workers_idle=self._n_idle,
            workers_busy=self._n_busy,
            workers_draining=self._n_draining,
        )

    def waiting_tasks(self) -> List[Task]:
        return list(self.queue)

    def running_tasks(self) -> List[Task]:
        return list(self.running.values())

    def connected_workers(self) -> List[Worker]:
        return list(self.workers.values())

    def idle_workers(self) -> List[Worker]:
        return [w for w in self.workers.values() if w.idle]

    @property
    def all_done(self) -> bool:
        return (
            not self.crashed
            and not self.queue
            and not self.running
            and self._backoff_pending == 0
            and not self._unclaimed
        )

    # ----------------------------------------------------------- accounting
    def goodput_core_s(self) -> float:
        """Core-seconds of completed, kept work (execution time only —
        the complement of :attr:`wasted_core_s`)."""
        return sum(
            t.result.execute_seconds * t.result.measured_resources.cores
            for t in self.done
            if t.result is not None
        )

    def cores_in_use(self) -> float:
        """RIU in cores: footprint cores of currently executing tasks."""
        return sum(w.cores_in_use() for w in self.workers.values())

    def cores_waiting(self) -> float:
        """RSH ingredient: cores desired by queued tasks (true footprints;
        the evaluation measures actual shortage, per §VI).

        Memoized against :attr:`TaskQueue.rev`: metric samplers and the
        forecast scaler poll this between queue mutations, and the fold
        is O(queue). The recompute folds in queue order, so the cached
        float is bit-identical to the unmemoized sum.
        """
        rev, value = self._cores_waiting_cache
        if rev != self.queue.rev:
            value = sum(t.footprint.cores for t in self.queue)
            self._cores_waiting_cache = (self.queue.rev, value)
        return value

    def clean_goodput_core_s(self) -> float:
        """Goodput minus the corrupted share: completed work whose
        results actually verify. Equal to :meth:`goodput_core_s` under
        verification (a corrupted result never completes); strictly
        smaller when verification is off and corruption slips through."""
        return self.goodput_core_s() - self.corrupted_goodput_core_s

    def supplied_cores(self) -> float:
        """RS in cores: capacity of connected, accepting workers.
        Quarantined workers are excluded — their capacity is untrusted,
        and counting it would let HTA's estimator see supply the
        dispatcher refuses to use."""
        return sum(
            w.capacity.cores
            for w in self.workers.values()
            if w.state in (WorkerState.READY, WorkerState.DRAINING)
            and not w.quarantined
        )
