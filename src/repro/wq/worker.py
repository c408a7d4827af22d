"""Workers: fetch inputs, execute tasks concurrently, return outputs.

A worker owns a resource capacity (its pod's request) and runs any number
of tasks whose allocations fit simultaneously — "a worker may run
multiple jobs simultaneously, as long as the sum of their declared
resources does not exceed the machine's capacity" (§II-B). Cacheable
input files persist in the worker's cache across tasks.

Scale-down paths (the crux of §II-C):

* :meth:`drain` — graceful: accept no new work, finish running tasks,
  then exit; HTA always uses this;
* :meth:`kill` — the pod was deleted under the worker (HPA's scale-down
  does this): in-flight transfers are aborted and running tasks go back
  to the master's queue, losing their progress.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Set

from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine, ScheduledEvent
from repro.wq.cache import WorkerCache
from repro.wq.link import Transfer
from repro.wq.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.pod import Pod
    from repro.wq.master import Master


class WorkerState(enum.Enum):
    CONNECTING = "connecting"
    READY = "ready"
    DRAINING = "draining"
    STOPPED = "stopped"   # graceful exit (drain complete)
    KILLED = "killed"     # pod deleted underneath us


class WorkerFleet(Protocol):
    """What owns a worker process (the pod runtime).

    :meth:`worker_changed` hears of every change that can move the worker
    into or out of the drainable pool or reorder it there: a connect, a
    drain, a kill, and a runs set filling or emptying. A runs change is
    reported only when one or no runs are left, not on every run.
    :meth:`worker_exited` hears that the process ended."""

    def worker_changed(self, worker: "Worker") -> None: ...

    def worker_exited(self, worker: "Worker") -> None: ...


class _TaskRun:
    """Book-keeping for one task in flight on this worker.

    ``state`` is this run's own execution state. The :class:`Task` object
    is shared with whichever run holds the task next (a requeue behind a
    partition hands it to a new worker while the old one still executes
    its copy), so the worker's gauges read ``state``, never
    ``task.state``; the run mirrors ``state`` into the task only while
    it is the task's :attr:`~repro.wq.task.Task.holder`.
    """

    __slots__ = (
        "task", "allocation", "transfers", "pending_inputs", "exec_event", "state",
        "start_time",
    )

    def __init__(self, task: Task, allocation: ResourceVector):
        self.task = task
        self.allocation = allocation
        self.state = TaskState.FETCHING
        #: Transfers owned by this run (its own inputs + its outputs).
        self.transfers: List[Transfer] = []
        #: Input files (own or joined single-flight) still in flight.
        self.pending_inputs = 0
        self.exec_event: Optional[ScheduledEvent] = None
        #: When this run began executing. The task's own ``start_time``
        #: belongs to its current attempt, which a requeue resets.
        self.start_time: Optional[float] = None


class Worker:
    """One Work Queue worker process (usually hosted in a pod)."""

    #: Seconds between the worker process starting and the master
    #: accepting its registration (TCP connect + handshake).
    CONNECT_LATENCY = 1.0
    #: Reconnect-poll backoff after the master connection drops (a
    #: crashed master pod): first retry after the base, then doubling up
    #: to the cap — `work_queue_worker` keeps polling the catalog the
    #: same way. The master's recovery grace window must exceed the cap.
    RECONNECT_BASE_S = 2.0
    RECONNECT_MAX_S = 30.0

    def __init__(
        self,
        engine: Engine,
        master: "Master",
        name: str,
        capacity: ResourceVector,
        *,
        pod: Optional["Pod"] = None,
        nic_bandwidth_mbps: Optional[float] = None,
        fleet: Optional[WorkerFleet] = None,
        connect_latency: Optional[float] = None,
    ) -> None:
        if not capacity.any_positive():
            raise ValueError(f"worker {name!r}: capacity must be positive, got {capacity}")
        self.engine = engine
        self.master = master
        self.name = name
        self.capacity = capacity
        self.pod = pod
        self.nic_bandwidth_mbps = nic_bandwidth_mbps
        self.fleet = fleet
        self.state = WorkerState.CONNECTING
        #: Set by the master's health ledger: an untrusted worker takes
        #: no new work and its result deliveries are rejected.
        self.quarantined = False
        #: Chaos-injected sickness (a :class:`~repro.wq.faults.BlackHoleProfile`):
        #: every task started here fast-fails or fast-fake-completes.
        self.black_hole = None
        #: LRU file cache bounded by the worker's disk capacity.
        self.cache = WorkerCache(capacity.disk_mb)
        #: Single-flight table: cacheable file name -> runs waiting for it.
        #: The first task to need a cacheable file fetches it once; later
        #: concurrent tasks join the in-flight transfer instead of
        #: duplicating it (Work Queue's per-worker file semantics).
        self._inflight_cacheable: Dict[str, List[_TaskRun]] = {}
        self.runs: Dict[int, _TaskRun] = {}
        #: Cached fold of the live runs' allocations plus the matching
        #: remainder. ``allocated()`` used to refold on every read and
        #: the master's best-fit scan reads it O(workers) times per
        #: dispatch pass, which made it the simulator's hottest
        #: function; instead it is recomputed once per runs-set
        #: mutation. The recompute keeps the original fold order so the
        #: cached floats are bit-identical to the on-demand values.
        self._allocated = ResourceVector.zero()
        self._available = (capacity - self._allocated).clamp_floor(0.0)
        #: :meth:`cores_in_use` and :meth:`cpu_usage` as last folded over
        #: the runs. Every runs-set or run-state change marks them stale
        #: (and tells the master and the pod); the first read after it
        #: refolds, so a worker that changes many times between two
        #: accounting samples or scrapes folds once (see :meth:`_fold_gauges`).
        self._in_use = 0
        self._cpu = 0
        self._gauges_stale = False
        self.tasks_completed = 0
        self.tasks_failed = 0
        #: True while the master connection is down (its pod crashed);
        #: running tasks continue and finished outputs are held locally.
        self._detached = False
        #: True while the network path to the master is partitioned: the
        #: master may be perfectly healthy, we just can't reach it. The
        #: worker behaves exactly as if detached (keep executing, hold
        #: results) but reconnect polls fail until :meth:`heal`.
        self._partitioned = False
        self._held_results: List[Task] = []
        #: Shipped checkpoints the partition kept from the master:
        #: (task, banked progress, lost seconds, migrate-out start) —
        #: re-delivered on reconnect exactly like held results.
        self._held_migrations: List[tuple] = []
        #: Tasks that died when the worker was killed while detached —
        #: there was no master to tell, so the ids are kept for the
        #: liveness expiry to requeue (see :meth:`unfinished_task_ids`).
        self._lost_detached_ids: Set[int] = set()
        self._reconnect_attempt = 0
        self.reconnects = 0
        self.connected_time: Optional[float] = None
        latency = self.CONNECT_LATENCY if connect_latency is None else connect_latency
        engine.call_in(latency, self._connect)

    # ------------------------------------------------------------ lifecycle
    def _connect(self) -> None:
        if self.state is not WorkerState.CONNECTING:
            return  # killed before the handshake finished
        if self._partitioned:
            # Can't reach the master yet; keep trying like a reconnect.
            self.engine.call_in(self.RECONNECT_BASE_S, self._connect)
            return
        self.state = WorkerState.READY
        self.connected_time = self.engine.now
        if self.fleet is not None:
            self.fleet.worker_changed(self)
        self.master.register_worker(self)

    # ------------------------------------------------------------ partitions
    @property
    def partitioned(self) -> bool:
        return self._partitioned

    def unfinished_task_ids(self) -> Set[int]:
        """Every task the master should still consider bound to this
        worker: live runs, locally-finished results not yet delivered,
        and anything that died in a kill while detached. The master's
        liveness expiry requeues exactly this set — ``runs`` alone
        misses held results and is empty after a kill."""
        ids: Set[int] = set(self.runs)
        ids.update(t.id for t in self._held_results)
        ids.update(t.id for t, _p, _l, _s in self._held_migrations)
        ids.update(self._lost_detached_ids)
        return ids

    def partition(self) -> None:
        """The network path to the master went dark (the master itself may
        be fine). Enter the detached regime: keep executing, hold
        finished results, poll for reconnection — polls fail until
        :meth:`heal` restores the link."""
        if self._partitioned or self.state in (
            WorkerState.STOPPED,
            WorkerState.KILLED,
        ):
            return
        self._partitioned = True
        self.master_lost()

    def heal(self) -> None:
        """The partition ended; the next reconnect poll will succeed."""
        self._partitioned = False

    def master_lost(self) -> None:
        """The master connection dropped (its pod crashed). Keep running
        what we have, hold finished outputs, and poll for the
        replacement with exponential backoff."""
        if self.state in (WorkerState.STOPPED, WorkerState.KILLED):
            return
        if self._detached:
            return
        self._detached = True
        # Models the master's side of the dropped connection: its dispatch
        # view stops offering this worker the moment the link dies (the
        # live ``accepting`` read did the same before the index existed).
        self.master.worker_status_changed(self)
        self._reconnect_attempt = 0
        self.engine.call_in(self.RECONNECT_BASE_S, self._try_reconnect)

    def _try_reconnect(self) -> None:
        if not self._detached or self.state in (
            WorkerState.STOPPED,
            WorkerState.KILLED,
        ):
            return
        if self.master.available and not self._partitioned:
            self._detached = False
            self.reconnects += 1
            self.master.worker_reconnected(self)
            held, self._held_results = self._held_results, []
            for task in held:
                self.master.task_finished(self, task)
            shipped, self._held_migrations = self._held_migrations, []
            for task, progress, lost_s, started_at in shipped:
                self.master.migration_arrived(
                    self, task, progress, lost_s, started_at
                )
            if self.state is WorkerState.DRAINING and not self.runs:
                self._stop()
            return
        self._reconnect_attempt += 1
        delay = min(
            self.RECONNECT_BASE_S * (2.0 ** self._reconnect_attempt),
            self.RECONNECT_MAX_S,
        )
        self.engine.call_in(delay, self._try_reconnect)

    def drain(self) -> None:
        """Stop accepting tasks; exit once running tasks complete."""
        if self.state in (WorkerState.STOPPED, WorkerState.KILLED):
            return
        if self.state is WorkerState.CONNECTING:
            # Never registered; just exit.
            self.state = WorkerState.STOPPED
            self._exited()
            return
        self.state = WorkerState.DRAINING
        if self.fleet is not None:
            self.fleet.worker_changed(self)
        if self._detached or self.runs:
            self.master.worker_status_changed(self)
        if self._detached:
            # The master is unreachable (partition or crash): we cannot
            # unregister, and held results must not die with us. The
            # reconnect poll finishes the drain protocol — deliver held
            # outputs, then stop.
            return
        self.master.worker_draining(self)
        if not self.runs:
            # An idle worker exits at once; unregistering refreshes the
            # master's caches for it, so they are refreshed once.
            self._stop()

    def kill(self) -> None:
        """Abrupt termination: abort transfers, lose running tasks."""
        if self.state in (WorkerState.STOPPED, WorkerState.KILLED):
            return
        was_registered = self.state in (WorkerState.READY, WorkerState.DRAINING)
        self.state = WorkerState.KILLED
        lost: List[Task] = []
        for run in list(self.runs.values()):
            for transfer in run.transfers:
                if not transfer.done:
                    self.master.link.cancel(transfer)
            if run.exec_event is not None:
                run.exec_event.cancel()
            self._set_state(run, TaskState.FAILED)
            self._release(run)
            lost.append(run.task)
        self.runs.clear()
        self._runs_changed()
        self._inflight_cacheable.clear()
        if was_registered and not self._detached:
            self.master.worker_lost(self, lost)
        elif was_registered:
            # A detached worker has no master to tell. After a master
            # crash the recovered master's grace window requeues the
            # unclaimed tasks; after a partition the master is healthy
            # and its liveness expiry asks :meth:`unfinished_task_ids`,
            # so remember exactly what died here — in-flight runs and
            # held results whose outputs are now gone.
            self._lost_detached_ids = {t.id for t in lost}
            self._lost_detached_ids.update(t.id for t in self._held_results)
            # Shipped-but-undelivered checkpoints die with us too; the
            # liveness expiry requeues the tasks at their last progress
            # the master actually accepted.
            self._lost_detached_ids.update(
                t.id for t, _p, _l, _s in self._held_migrations
            )
        self._held_results.clear()
        self._held_migrations.clear()
        self._exited()

    def _stop(self) -> None:
        self.state = WorkerState.STOPPED
        self.master.unregister_worker(self)
        self._exited()

    def _exited(self) -> None:
        if self.fleet is not None:
            self.fleet.worker_exited(self)

    # ------------------------------------------------------------- capacity
    def _runs_changed(self) -> None:
        """The runs set mutated: refold the allocation cache, mark the
        gauges stale, and tell the master its dispatch-side caches for
        this worker are stale."""
        total = ResourceVector.zero()
        for run in self.runs.values():
            total = total + run.allocation
        self._allocated = total
        self._available = (self.capacity - total).clamp_floor(0.0)
        self._gauges_changed()
        self.master.worker_status_changed(self)
        # Each call follows one run added or removed (or a kill's clear),
        # so only one or zero runs left can mean the set just filled or
        # emptied.
        if len(self.runs) < 2 and self.fleet is not None:
            self.fleet.worker_changed(self)

    def _set_state(self, run: _TaskRun, state: TaskState) -> None:
        """Move ``run`` to ``state``; the task sees it only if ``run``
        still holds it."""
        run.state = state
        task = run.task
        if task.holder is run:
            task.state = state

    @staticmethod
    def _release(run: _TaskRun) -> None:
        """``run`` left the worker: it no longer holds its task (and a
        finished task does not keep its run alive)."""
        if run.task.holder is run:
            run.task.holder = None

    def _run_state_changed(self, run: _TaskRun, state: TaskState) -> None:
        """A live run entered or left RUNNING: its gauges are stale, and
        the master's RIU total reads ours."""
        self._set_state(run, state)
        if not self._gauges_stale:
            self._gauges_changed()
            self.master.run_states_changed(self)

    def _gauges_changed(self) -> None:
        """Mark the gauges stale and note the pod. Already stale means
        nobody read them since the last note: it is still pending, or a
        reader took it without reading this worker (its pod stopped
        running, its name left the master's table; registering again
        re-marks the name), so there is nothing to tell."""
        if not self._gauges_stale:
            self._gauges_stale = True
            if self.pod is not None:
                self.pod.usage_changed()

    def _fold_gauges(self) -> None:
        """Refold :meth:`cores_in_use` and :meth:`cpu_usage` over the runs'
        own states, in runs order, as the on-demand folds did."""
        self._gauges_stale = False
        runs = self.runs.values()
        in_use = sum(
            min(run.task.footprint.cores, run.allocation.cores)
            for run in runs
            if run.state is TaskState.RUNNING
        )
        cpu = sum(
            min(run.task.footprint.cores, run.allocation.cores) * run.task.cpu_fraction
            if run.state is TaskState.RUNNING
            else 0.0
            for run in runs
        )
        self._in_use = in_use
        self._cpu = cpu

    def allocated(self) -> ResourceVector:
        return self._allocated

    def available(self) -> ResourceVector:
        return self._available

    @property
    def idle(self) -> bool:
        return self.state is WorkerState.READY and not self.runs

    @property
    def accepting(self) -> bool:
        return (
            self.state is WorkerState.READY
            and not self._detached
            and not self.quarantined
        )

    def can_fit(self, allocation: ResourceVector) -> bool:
        return self.accepting and allocation.fits_in(self.available())

    def has_cached(self, task: Task) -> bool:
        """True iff every cacheable input of ``task`` is already here."""
        return all(f.name in self.cache for f in task.inputs if f.cacheable)

    # ------------------------------------------------------------ execution
    def assign(self, task: Task, allocation: ResourceVector) -> None:
        """Called by the master: start the fetch→execute→return pipeline."""
        if not self.can_fit(allocation):
            raise RuntimeError(
                f"worker {self.name}: cannot fit {allocation} "
                f"(available {self.available()})"
            )
        run = _TaskRun(task, allocation)
        self.runs[task.id] = run
        self._runs_changed()
        task.allocation = allocation
        task.dispatch_time = self.engine.now
        task.holder = run
        task.state = TaskState.FETCHING
        self._start_fetches(run)
        if run.pending_inputs == 0:
            self._begin_execution(run)

    def _start_fetches(self, run: _TaskRun) -> None:
        """Arrange delivery of every input file, single-flighting
        cacheable ones shared with concurrent tasks."""
        noncacheable_mb = 0.0
        for f in run.task.inputs:
            if f.name in self.cache:
                self.cache.touch(f.name, self.engine.now)
                continue
            if f.cacheable:
                waiters = self._inflight_cacheable.get(f.name)
                if waiters is not None:
                    waiters.append(run)  # join the in-flight fetch
                    run.pending_inputs += 1
                else:
                    self._inflight_cacheable[f.name] = [run]
                    run.pending_inputs += 1
                    t = self.master.link.start_transfer(
                        f"{self.name}:in:{f.name}",
                        f.size_mb,
                        rate_cap_mbps=self.nic_bandwidth_mbps,
                        on_complete=lambda _t, name=f.name, size=f.size_mb: (
                            self._cacheable_arrived(name, size)
                        ),
                    )
                    run.transfers.append(t)
            else:
                noncacheable_mb += f.size_mb
        if noncacheable_mb > 0:
            run.pending_inputs += 1
            t = self.master.link.start_transfer(
                f"{self.name}:in:{run.task.id}",
                noncacheable_mb,
                rate_cap_mbps=self.nic_bandwidth_mbps,
                on_complete=lambda _t, r=run: self._input_arrived(r),
            )
            run.transfers.append(t)

    def _cacheable_arrived(self, file_name: str, size_mb: float) -> None:
        self.cache.add(
            file_name, size_mb, self.engine.now, pinned=self._pinned_files()
        )
        waiters = self._inflight_cacheable.pop(file_name, [])
        for run in waiters:
            self._input_arrived(run)

    def _pinned_files(self) -> Set[str]:
        """Cacheable inputs of tasks currently on this worker: never
        evicted while those tasks might still need them."""
        return {
            f.name
            for run in self.runs.values()
            for f in run.task.inputs
            if f.cacheable
        }

    def _input_arrived(self, run: _TaskRun) -> None:
        if run.task.id not in self.runs:
            return  # killed while fetching
        run.pending_inputs -= 1
        if run.pending_inputs == 0:
            self._begin_execution(run)

    def _begin_execution(self, run: _TaskRun) -> None:
        task = run.task
        self._run_state_changed(run, TaskState.RUNNING)
        run.start_time = task.start_time = self.engine.now
        task.payload_corrupt = False
        run.transfers.clear()
        # Resume from banked checkpoint progress: only the remaining
        # execute-seconds run here (the full execute_s when progress is
        # zero, which keeps migration-free runs bit-identical).
        remaining = task.remaining_execute_s()
        bh = self.black_hole
        if bh is not None:
            # A black-hole node resolves every task in seconds: either a
            # fast failure or a fake completion whose payload can never
            # pass the master's content-digest verification. No fault
            # stream is consumed — the sickness is the node's, not the
            # task's, so arming it never perturbs the seeded sequences.
            delay = min(bh.latency_s, remaining)
            if bh.mode == "fast-fail":
                from repro.wq.faults import TaskFault

                fault = TaskFault(
                    kind="black-hole",
                    at_fraction=(delay / remaining) if remaining > 0 else 0.0,
                )
                run.exec_event = self.engine.call_in(
                    delay, self._execution_failed, run, fault
                )
            else:  # fast-fake
                task.payload_corrupt = True
                run.exec_event = self.engine.call_in(
                    delay, self._execution_done, run
                )
            return
        fault = self.master.draw_fault(task, run.allocation)
        if fault is not None:
            delay = max(0.0, fault.at_fraction * remaining)
            run.exec_event = self.engine.call_in(
                delay, self._execution_failed, run, fault
            )
            return
        # The attempt will complete; draw whether its payload is
        # silently corrupted in flight (zero-cost when value faults
        # are off — the model consumes no variate then).
        task.payload_corrupt = self.master.draw_result_corruption(task)
        run.exec_event = self.engine.call_in(remaining, self._execution_done, run)

    def _execution_failed(self, run: _TaskRun, fault) -> None:
        """The attempt died (nonzero exit or allocation enforcement)."""
        if run.task.id not in self.runs:
            return
        task = run.task
        run.exec_event = None
        del self.runs[task.id]
        self._runs_changed()
        self._set_state(run, TaskState.FAILED)
        self._release(run)
        self.tasks_failed += 1
        if self._detached:
            # Nobody to report to; the recovered master's grace requeue
            # re-runs the task. Don't stop a draining worker yet — the
            # reconnect poll finishes the drain protocol.
            return
        self.master.task_failed(self, task, fault)
        if self.state is WorkerState.DRAINING and not self.runs:
            self._stop()

    def _execution_done(self, run: _TaskRun) -> None:
        if run.task.id not in self.runs:
            return
        task = run.task
        self._run_state_changed(run, TaskState.RETURNING)
        run.exec_event = None
        t = self.master.link.start_transfer(
            f"{self.name}:out:{task.id}",
            task.output_bytes_mb(),
            rate_cap_mbps=self.nic_bandwidth_mbps,
            on_complete=lambda _t, r=run: self._outputs_delivered(r),
        )
        run.transfers.append(t)

    # ------------------------------------------------------------ migration
    def migrate_out(self, task: Task) -> bool:
        """Checkpoint a running task and ship the snapshot to the master
        (pause → cut → ship → ``Master.migration_arrived``). Returns
        False when the task cannot migrate here: not on this worker, not
        executing yet (nothing to bank), or not checkpointable.

        The run keeps its seat (allocation) until the checkpoint is off
        the node; a kill mid-snapshot or mid-ship loses the cut and the
        task falls back to the plain worker-lost requeue at whatever
        progress the master last accepted."""
        run = self.runs.get(task.id)
        if run is None or run.state is not TaskState.RUNNING:
            return False
        spec = task.checkpoint
        if spec is None:
            return False
        started_at = self.engine.now
        elapsed = started_at - run.start_time
        banked = spec.banked_progress(elapsed)
        new_progress = min(task.execute_s, task.progress_s + banked)
        lost_s = max(0.0, elapsed - banked)
        if run.exec_event is not None:
            run.exec_event.cancel()
        self._run_state_changed(run, TaskState.MIGRATING)  # paused: burns no CPU
        run.exec_event = self.engine.call_in(
            spec.cost_s, self._checkpoint_cut, run, new_progress, lost_s, started_at
        )
        return True

    def _checkpoint_cut(
        self, run: _TaskRun, new_progress: float, lost_s: float, started_at: float
    ) -> None:
        """The snapshot is on local disk; ship it over the master link."""
        task = run.task
        if task.id not in self.runs:
            return  # killed or cancelled mid-snapshot
        run.exec_event = None
        assert task.checkpoint is not None
        # Draw whether this snapshot is damaged in cut or transit; the
        # master's digest check on arrival decides whether to resume
        # from it (consumes nothing while value faults are off).
        task.checkpoint_corrupt = self.master.draw_checkpoint_corruption(task)
        t = self.master.link.start_transfer(
            f"{self.name}:ckpt:{task.id}",
            task.checkpoint.size_mb,
            rate_cap_mbps=self.nic_bandwidth_mbps,
            on_complete=lambda _t, r=run: self._checkpoint_shipped(
                r, new_progress, lost_s, started_at
            ),
        )
        run.transfers.append(t)

    def _checkpoint_shipped(
        self, run: _TaskRun, new_progress: float, lost_s: float, started_at: float
    ) -> None:
        task = run.task
        if task.id not in self.runs:
            return
        del self.runs[task.id]
        self._release(run)
        self._runs_changed()
        if self._detached:
            # No master to deliver to; hold the checkpoint like a held
            # result and re-deliver on reconnect. The master's
            # at-most-once guard drops it if the task was requeued
            # meanwhile.
            self._held_migrations.append((task, new_progress, lost_s, started_at))
            return
        self.master.migration_arrived(self, task, new_progress, lost_s, started_at)
        if self.state is WorkerState.DRAINING and not self.runs:
            self._stop()

    def cancel_run(self, task: Task) -> bool:
        """Abort one task without touching the rest of the worker (the
        master cancels the losing copy of a speculative pair this way).
        Returns False if the task is not on this worker. The master is
        *not* notified — the caller owns the bookkeeping."""
        run = self.runs.pop(task.id, None)
        if run is None:
            return False
        self._release(run)
        self._runs_changed()
        if run.exec_event is not None:
            run.exec_event.cancel()
            run.exec_event = None
        # Drop out of any single-flight fetch we merely joined...
        for name, waiters in list(self._inflight_cacheable.items()):
            if run in waiters:
                waiters.remove(run)
            if not waiters:
                # Nobody is left waiting; forget the fetch (its transfer,
                # if this run owned it, is cancelled just below).
                del self._inflight_cacheable[name]
        # ...but keep cacheable fetches other live runs still wait on.
        keep = {f"{self.name}:in:{name}" for name in self._inflight_cacheable}
        for transfer in run.transfers:
            if not transfer.done and transfer.label not in keep:
                self.master.link.cancel(transfer)
        if self.state is WorkerState.DRAINING and not self.runs and not self._detached:
            self._stop()
        return True

    def _outputs_delivered(self, run: _TaskRun) -> None:
        if run.task.id not in self.runs:
            return
        task = run.task
        del self.runs[task.id]
        self._release(run)
        self._runs_changed()
        self.tasks_completed += 1
        if self._detached:
            # No master to report to; hold the outputs until reconnect.
            self._held_results.append(task)
            return
        self.master.task_finished(self, task)
        if self.state is WorkerState.DRAINING and not self.runs:
            self._stop()

    # --------------------------------------------------------------- gauges
    def cpu_usage(self) -> float:
        """Instantaneous CPU (cores) of the executing runs, footprint
        modulated by ``cpu_fraction`` — what the pod reports to metrics."""
        if self._gauges_stale:
            self._fold_gauges()
        return self._cpu

    def cores_in_use(self) -> float:
        """Cores consumed by *executing* runs (footprint, not allocation);
        the RIU ingredient for the evaluation accounting."""
        if self._gauges_stale:
            self._fold_gauges()
        return self._in_use

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Worker {self.name!r} {self.state.value} tasks={len(self.runs)}>"
