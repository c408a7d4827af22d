"""The list-walking Work Queue dispatch pass, kept as a test oracle.

:class:`LiteralDispatch` holds ``DispatchCore._dispatch`` and
``DispatchCore._try_place`` exactly as they were before the queue was
bucketed by placement signature and the worker index grouped by
``(capacity, available)``: one walk over the whole queue per pass, one
rebuild of it afterwards, and a scan of every accepting worker per
task. The method bodies are verbatim; only the state they read is
re-homed.

It binds to a live :class:`~repro.wq.dispatch.DispatchCore`: the queue
is copied into a plain list (in queue order) and the accepting index
into a flat ``name -> worker`` dict, while every side effect of a
placement (run table, ``Worker.assign``, journal, telemetry) goes to
the core. Call :meth:`sync_accepting` after anything that changes which
workers accept work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.resources import ResourceVector
from repro.wq.task import Task
from repro.wq.worker import Worker


class LiteralDispatch:
    """A list-queue dispatcher over a core's workers, estimator and books."""

    #: Sentinel distinguishing "capacity not sized yet" from "sized to
    #: None (task cannot fit this capacity at all)" in the dispatch memo.
    _UNSIZED = object()

    def __init__(self, core) -> None:
        self.core = core
        self.queue: List[Task] = list(core.queue)
        self._queued_ids: Set[int] = {t.id for t in self.queue}
        self._queued_priority = sum(1 for t in self.queue if t.priority)
        self._queue_rev = 0
        self._dispatch_pending = False
        self.sync_accepting()

    def sync_accepting(self) -> None:
        self._accepting: Dict[str, Worker] = {
            name: w for name, w in self.core.workers.items() if w.accepting
        }

    def __getattr__(self, name):
        # Everything the verbatim bodies read besides the queue and the
        # accepting index (engine, estimator, running, journal, tracer,
        # availability) is the bound core's.
        return getattr(self.core, name)

    # ------------------------------------------------- verbatim from here
    def _dispatch(self) -> None:
        self._dispatch_pending = False
        if not self.queue or not self.available or not self._accepting:
            return
        # Higher priority first; FIFO (stable sort over queue order)
        # within a priority level. Requeued tasks sit at the queue front
        # already, keeping retry-first semantics among equal priorities.
        # When every queued priority is the default 0 (tracked by the
        # queue helpers) the sorted order IS the queue order, so the
        # per-pass sort is skipped.
        if self._queued_priority:
            ordered = sorted(self.queue, key=lambda t: -t.priority)
        else:
            ordered = self.queue
        # Within one synchronous pass worker capacity only shrinks, so a
        # task that found no seat proves the same for every later task
        # with the same placement inputs (category drives the estimate;
        # footprint/min_allocation/declared drive the sizing). Memoizing
        # the failures turns the tail of a saturated pass into O(1) per
        # task instead of a full candidate scan each.
        unplaceable: Set[Tuple] = set()
        placed: List[Task] = []
        for task in ordered:
            sig = (task.category, task.footprint, task.min_allocation, task.declared)
            if sig in unplaceable:
                continue
            if self._try_place(task):
                placed.append(task)
            else:
                unplaceable.add(sig)
        if placed:
            placed_ids = {t.id for t in placed}
            self.queue = [t for t in self.queue if t.id not in placed_ids]
            self._queued_ids -= placed_ids
            self._queue_rev += 1
            if self._queued_priority:
                self._queued_priority -= sum(1 for t in placed if t.priority)

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
        for worker in self._accepting.values():
            if worker is exclude or not worker.accepting:
                continue
            capacity = worker.capacity
            alloc = alloc_by_capacity.get(capacity, LiteralDispatch._UNSIZED)
            if alloc is LiteralDispatch._UNSIZED:
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
            if alloc is None:
                continue
            available = worker.available()
            if not alloc.fits_in(available):
                continue
            # Prefer cache hits; then best-fit by remaining cores. The
            # unique name tiebreak makes the winner independent of the
            # order the index is walked in.
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
