"""The Work Queue master: a session/connection shell over DispatchCore.

"During runtime, the master finds available workers and assigns jobs to
them" (§II-B). The dispatch policy itself — FIFO with retry-to-front,
estimator-sized allocations, cache-then-best-fit placement — lives in
:class:`~repro.wq.dispatch.DispatchCore`; this module layers the
*connection* concerns on top:

* worker registration / deregistration and the drain protocol;
* partition liveness (unreachable clocks, declared-lost expiry);
* availability outages (pause/resume with completion buffering);
* crash recovery (journal replay or cold restart, reconnect adoption).

The master exposes the live queue statistics HTA's controller consumes
(:class:`MasterStats`) and fires ``on_complete`` callbacks that both the
Makeflow manager (to release dependents) and HTA (to refresh category
estimates) subscribe to.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional

from repro.wq.dispatch import (
    CompletionCallback,
    DispatchConfig,
    DispatchCore,
    MasterStats,
)
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker, WorkerState

__all__ = [
    "CompletionCallback",
    "DispatchConfig",
    "DispatchCore",
    "Master",
    "MasterStats",
]


class Master(DispatchCore):
    """The master process of the Work Queue framework."""

    # -------------------------------------------------------------- workers
    def register_worker(self, worker: Worker) -> None:
        if self.health is not None:
            # A brand-new pod registering under a recycled name is a
            # fresh process: its predecessor's outcome history died with
            # the old pod and must not taint it.
            self.health.forget_worker(worker.name)
        self.workers[worker.name] = worker
        self._refresh_worker_cache(worker)
        self._schedule_dispatch()

    def unregister_worker(self, worker: Worker) -> None:
        self.workers.pop(worker.name, None)
        self._refresh_worker_cache(worker)

    def worker_draining(self, worker: Worker) -> None:
        """A drain started; nothing to do — dispatch skips non-accepting
        workers — but the hook keeps the protocol explicit."""

    def worker_status_changed(self, worker: Worker) -> None:
        """Worker-side hook: its accepting/idle/busy state may have
        flipped (a run started or ended, a drain began, the connection
        dropped). Refreshes the dispatch index and stat counters."""
        self._refresh_worker_cache(worker)

    # ----------------------------------------------------- partition liveness
    def worker_unreachable(self, worker: Worker) -> None:
        """The link to a connected worker went dark (network partition).

        The worker may be perfectly healthy and still computing, so its
        runs stay on the books — but the liveness clock starts: if it has
        not reconnected when :attr:`liveness_timeout_s` expires, it is
        declared lost and its in-flight tasks requeue (work_queue's
        keepalive timeout behaves the same way)."""
        if worker.name not in self.workers:
            return
        since = self.engine.now
        self._unreachable[worker.name] = since
        self.partitions_detected += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "worker.unreachable",
                worker=worker.name,
                timeout_s=self.liveness_timeout_s,
            )
        self.engine.call_in(
            self.liveness_timeout_s,
            self._liveness_expired,
            worker,
            since,
            self._incarnation,
        )

    def _liveness_expired(
        self, worker: Worker, since: float, incarnation: int
    ) -> None:
        if incarnation != self._incarnation or self.crashed:
            return
        if self._unreachable.get(worker.name) != since:
            return  # reconnected, or a fresh partition restarted the clock
        del self._unreachable[worker.name]
        if worker.name not in self.workers:
            return
        # Ask the worker object (not just its live runs) what is still
        # bound to it: held results the partition kept from us and tasks
        # that died in a detached kill must requeue too, or they would
        # sit in ``running`` forever.
        bound = worker.unfinished_task_ids()
        lost = [t for tid, t in list(self.running.items()) if tid in bound]
        self.workers_declared_lost += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "worker.declared_lost",
                worker=worker.name,
                tasks=len(lost),
            )
        self.worker_lost(worker, lost)
        if worker._detached and worker.state in (
            WorkerState.READY,
            WorkerState.DRAINING,
        ):
            # Still alive behind the partition and still polling us.
            self._orphaned[worker.name] = worker

    # ----------------------------------------------------------- availability
    def pause(self) -> None:
        """The master process went down (pod killed/restarting)."""
        if not self.available:
            return
        self.available = False
        self.outages += 1
        if self.tracer.enabled:
            self.tracer.emit("wq", "master.pause", outages=self.outages)

    def resume(self) -> None:
        """The master is back (sticky identity + persistent volume): the
        queue survived; buffered worker completions are delivered now."""
        if self.available:
            return
        if self.crashed:
            return  # a crashed master needs recover(), not resume()
        self.available = True
        if self.tracer.enabled:
            self.tracer.emit(
                "wq", "master.resume", buffered=len(self._buffered_completions)
            )
        buffered, self._buffered_completions = self._buffered_completions, []
        for worker, task in buffered:
            self._finalize_completion(worker, task)
        self._schedule_dispatch()

    # ------------------------------------------------------ crash recovery
    def crash(self, *, restart_delay_s: Optional[float] = None) -> None:
        """The master process died and lost its in-memory state. Unlike
        :meth:`pause` (a blip the sticky pod identity papers over), a
        crash wipes the queue, the worker table, and the monitor — only
        the journal (on the persistent volume) survives. Workers notice
        the dead connection, keep running what they have, and poll for
        the replacement with backoff (:meth:`Worker.master_lost`).
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        self.last_crash_at = self.engine.now
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "master.crash",
                queued=len(self.queue),
                running=len(self.running),
                workers=len(self.workers),
            )
        self.first_completion_after_recovery_at = None
        if self.available:
            self.available = False
            self.outages += 1
        self._incarnation += 1
        orphaned = {
            name: w
            for name, w in self._orphaned.items()
            if w._detached
            and w.master is self
            and w.state in (WorkerState.READY, WorkerState.DRAINING)
        }
        orphaned.update(self.workers)
        self._orphaned = orphaned
        # ``master_lost`` never re-enters the worker table, so iterating
        # the live view (no defensive copy) is safe here.
        for worker in self.workers.values():
            worker.master_lost()
        self.workers.clear()
        self._reset_worker_caches()
        self._reset_queue([])
        self.running.clear()
        self.done.clear()
        self.abandoned.clear()
        self._unclaimed.clear()
        self._delivered.clear()
        self._handed_off.clear()
        self.tasks_submitted = 0
        self._backoff_pending = 0
        self.monitor.reset()
        self._spec.clear()
        self._spec_origin.clear()
        if self._spec_loop is not None:
            self._spec_loop.stop()
            self._spec_loop = None
        # _callbacks / _abandoned_callbacks persist — clients reconnect to
        # the replacement pod. _buffered_completions persist too: those
        # outputs sit at the workers, not in master memory.
        if restart_delay_s is not None:
            self.engine.call_in(restart_delay_s, self.recover)

    def recover(self, *, replay: Optional[bool] = None) -> None:
        """The replacement master pod is up. With ``replay`` (default
        :attr:`replay_journal`) the journal reconstructs the pre-crash
        state: completed results re-feed the monitor, the ready queue and
        retry counters come back, and tasks in flight at crash time wait
        in the unclaimed set for their workers to reconnect (requeued
        after :attr:`recovery_grace_s` if they never do). Without replay
        this is a cold restart: every submitted task re-enters the queue
        and already-completed work re-executes.
        """
        if not self.crashed:
            return
        use_replay = self.replay_journal if replay is None else replay
        state = self.journal.replay(completions=use_replay)
        self.tasks_submitted = state.submitted
        if use_replay:
            self._reset_queue(list(state.ready))
            self._unclaimed = dict(state.unclaimed)
            self._delivered = set(state.delivered)
            self._handed_off = set(state.handed_off)
            self.abandoned = list(state.abandoned)
            for task in chain(self._unclaimed.values(), self.queue):
                if task.id in state.attempts:
                    task.attempts = state.attempts[task.id]
                if task.id in state.progress:
                    task.progress_s = state.progress[task.id]
            for task, result in state.completions:
                task.state = TaskState.DONE
                task.result = result
                self.done.append(task)
                self.monitor.record(result)
            for category, floor in state.escalations:
                self.monitor.observe_exhaustion(category, floor)
            # Quarantines outlive the crash: the journal knows which
            # workers were condemned, and the verdict is re-applied when
            # (if) each one reconnects.
            self._recovered_quarantined = set(state.quarantined)
        else:
            # Cold restart: the quarantine ledger died with the PV.
            self._recovered_quarantined = set()
            ready: List[Task] = []
            for task in state.ready:
                if task.result is not None:
                    # Completed before the crash; the cold restart
                    # forgot, so it will burn a second execution.
                    self.tasks_rerun += 1
                task.result = None
                task.finish_time = None
                task.attempts = 0
                task.min_allocation = None
                # The cold restart lost the PV, checkpoints included.
                task.progress_s = 0.0
                task.reset_for_retry()
                ready.append(task)
            self._reset_queue(ready)
        self.recovered_queue_depth = len(self.queue)
        self.crashed = False
        self.available = True
        self.last_recovered_at = self.engine.now
        if self.tracer.enabled:
            self.tracer.emit(
                "wq",
                "master.recover",
                strategy="journal" if use_replay else "cold",
                queue_depth=self.recovered_queue_depth,
                unclaimed=len(self._unclaimed),
                completions_restored=len(self.done),
            )
        buffered, self._buffered_completions = self._buffered_completions, []
        for worker, task in buffered:
            self._finalize_completion(worker, task)
        if self._unclaimed:
            self.engine.call_in(
                self.recovery_grace_s, self._requeue_unclaimed, self._incarnation
            )
        if self.queue or self.running or self._unclaimed:
            self._ensure_speculation_loop()
        self._schedule_dispatch()

    def _requeue_unclaimed(self, incarnation: int) -> None:
        """The reconnect grace window closed: whatever recovery left
        unclaimed has no surviving worker — retry it at the queue front."""
        if incarnation != self._incarnation or self.crashed:
            return
        leftovers = list(self._unclaimed.values())
        self._unclaimed.clear()
        for task in reversed(leftovers):
            self._charge_waste(task)
            self._retry(task, "unclaimed", backoff=False)
        if leftovers:
            self._schedule_dispatch()

    def worker_reconnected(self, worker: Worker) -> None:
        """A worker that survived the crash found the replacement master.
        Adopt the runs it still carries when they match an unclaimed task
        the journal knows about; anything else — a speculative copy, an
        attempt the recovered master forgot — is cancelled and re-run
        through the normal queue."""
        if worker.state not in (WorkerState.READY, WorkerState.DRAINING):
            return
        self._orphaned.pop(worker.name, None)
        self.workers[worker.name] = worker
        self._refresh_worker_cache(worker)
        self._unreachable.pop(worker.name, None)
        if worker.name in self._recovered_quarantined:
            # The journal condemned this worker before the crash; the
            # verdict survives its reconnect. Restart the probation clock
            # from now — the pre-crash timer died with the old process.
            self._recovered_quarantined.discard(worker.name)
            if self.health is not None:
                worker.quarantined = True
                self.health.restore_quarantine(worker.name)
                self._refresh_worker_cache(worker)
                if self.health.config.probation_after_s > 0:
                    seq = self._quarantine_seq.get(worker.name, 0) + 1
                    self._quarantine_seq[worker.name] = seq
                    self.engine.call_in(
                        self.health.config.probation_after_s,
                        self._probation_due,
                        worker,
                        seq,
                        self._incarnation,
                    )
        # Snapshot once: ``cancel_run`` below mutates ``worker.runs``.
        for run in list(worker.runs.values()):
            task = run.task
            adoptable = (
                not worker.quarantined
                and task.result is None
                and task.dispatch_time is not None
                # A task requeued while we were away may already be
                # running on another worker — the Task object is shared,
                # so ``running.get(id) is task`` alone cannot tell "still
                # mine" from "re-dispatched elsewhere". Adopting the
                # stale copy would double-execute it.
                and not self._running_elsewhere(task, worker)
                and (
                    # Healed partition, liveness clock still running: the
                    # master never forgot the run (speculative copies
                    # included) — just re-adopt it.
                    self.running.get(task.id) is task
                    or (
                        task.speculation_of is None
                        and (
                            task.id in self._unclaimed
                            or self.queue.has_id(task.id)
                        )
                    )
                )
            )
            if adoptable:
                self._unclaimed.pop(task.id, None)
                self._dequeue(task)
                self.running[task.id] = task
                # The adopted run is the canonical attempt again: its
                # next transitions reach the task (a requeue had
                # released it).
                task.holder = run
            else:
                self._charge_waste(task)
                worker.cancel_run(task)
        self._schedule_dispatch()

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "Master":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
