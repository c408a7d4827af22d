"""The workflow manager: releases ready tasks, tracks completion.

Makeflow "dispatches ready jobs to the underlying system" (§I). The
manager is agnostic to *what* it submits to — anything satisfying
:class:`Submitter` works: the Work Queue :class:`~repro.wq.master.Master`
directly, or HTA's operator sitting in between (the paper's architecture,
fig 8, where Makeflow talks to HTA's TCP server and HTA forwards to the
master). :class:`WorkflowStream` drives a stream of workflow arrivals
through one submitter the same way.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Set

from repro.makeflow.dag import WorkflowGraph
from repro.sim.engine import Engine
from repro.sim.process import Signal
from repro.sim.tracing import MetricRecorder
from repro.wq.task import Task, TaskResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.arrivals import WorkflowArrival


class Submitter(Protocol):
    """Where the manager sends ready tasks (Master or HTA operator)."""

    def submit(self, task: Task) -> None:
        ...  # pragma: no cover - protocol signature

    def on_complete(self, fn: Callable[[Task, TaskResult], None]) -> None:
        ...  # pragma: no cover - protocol signature


class WorkflowManager:
    """Drives one workflow DAG to completion through a submitter."""

    def __init__(
        self,
        engine: Engine,
        graph: WorkflowGraph,
        submitter: Submitter,
        *,
        recorder: Optional[MetricRecorder] = None,
    ) -> None:
        self.engine = engine
        self.graph = graph
        self.submitter = submitter
        self.recorder = recorder
        #: Prerequisites not yet completed, for the tasks that have any.
        self._remaining_deps: Dict[int, Set[int]] = {
            tid: set(deps) for tid, deps in graph.dependencies.items() if deps
        }
        self._submitted: Set[int] = set()
        self._completed: Set[int] = set()
        self.started = False
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: Latched signal fired with the manager when the DAG completes.
        self.done_signal = Signal(engine, "workflow.done")
        self.completed_by_category: Dict[str, int] = {}
        #: Set when a task is permanently abandoned: the DAG can never
        #: finish, and drivers should stop waiting.
        self.failed_task_ids: Set[int] = set()
        submitter.on_complete(self._task_completed)
        on_abandoned = getattr(submitter, "on_abandoned", None)
        if callable(on_abandoned):
            on_abandoned(self._task_abandoned)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Submit all root tasks; idempotent."""
        if self.started:
            return
        self.started = True
        self.start_time = self.engine.now
        self._record_progress()
        for task in self.graph.roots():
            self._submit(task)

    @property
    def done(self) -> bool:
        return len(self._completed) == len(self.graph)

    @property
    def failed(self) -> bool:
        return bool(self.failed_task_ids)

    @property
    def makespan(self) -> Optional[float]:
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def progress(self) -> float:
        return len(self._completed) / len(self.graph)

    # ------------------------------------------------------------- internal
    def _submit(self, task: Task) -> None:
        if task.id in self._submitted:
            return
        self._submitted.add(task.id)
        self.submitter.submit(task)

    def _task_completed(self, task: Task, result: TaskResult) -> None:
        if task.id in self._completed or task not in self.graph:
            return  # not ours (several workflows can share a master)
        self._completed.add(task.id)
        self.completed_by_category[task.category] = (
            self.completed_by_category.get(task.category, 0) + 1
        )
        self._record_progress()
        for dependent_id in sorted(self.graph.dependents[task.id]):
            deps = self._remaining_deps[dependent_id]
            deps.discard(task.id)
            if not deps and dependent_id not in self._submitted:
                self._submit(self.graph.task(dependent_id))
        if self.done and self.finish_time is None:
            self.finish_time = self.engine.now
            self.done_signal.fire_once(self)

    def _task_abandoned(self, task: Task) -> None:
        if task in self.graph:
            self.failed_task_ids.add(task.id)

    def _record_progress(self) -> None:
        if self.recorder is None:
            return
        self.recorder.set("workflow.completed", len(self._completed))
        self.recorder.set("workflow.submitted", len(self._submitted))
        for category, count in self.completed_by_category.items():
            self.recorder.set(f"workflow.completed.{category}", count)


class WorkflowStream:
    """Workflows arriving over time through one submitter — the paper's
    long-running facility. One :class:`WorkflowManager` per arrival,
    each started at its arrival time; the stream presents the manager
    surface the experiment drive loop reads.

    Arrivals are scheduled when the stream is built, so their start
    events queue ahead of anything the policy and the accountant
    schedule afterwards; :meth:`start` is therefore a no-op.
    """

    def __init__(
        self,
        engine: Engine,
        arrivals: List["WorkflowArrival"],
        submitter: Submitter,
        *,
        recorder: Optional[MetricRecorder] = None,
    ) -> None:
        if not arrivals:
            raise ValueError("need at least one arrival")
        self.managers: List[WorkflowManager] = []
        self.remaining = len(arrivals)
        # The done signal's waiters run synchronously from the last
        # workflow's own done waiter: finishing the stream costs no event.
        self._waiters: List[Callable[["WorkflowStream"], None]] = []
        self.done_signal = SimpleNamespace(add_waiter=self._waiters.append)
        for arrival in sorted(arrivals, key=lambda a: a.time_s):
            manager = WorkflowManager(engine, arrival.graph, submitter, recorder=recorder)
            manager.done_signal.add_waiter(self._one_done)
            self.managers.append(manager)
            engine.call_at(arrival.time_s, manager.start)
        self._tasks = sum(len(m.graph) for m in self.managers)

    def start(self) -> None:
        """Nothing to do: each workflow starts at its arrival time."""

    def _one_done(self, _manager: WorkflowManager) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            for callback in self._waiters:
                callback(self)

    @property
    def done(self) -> bool:
        return self.remaining == 0

    @property
    def failed(self) -> bool:
        return any(m.failed for m in self.managers)

    @property
    def failed_task_ids(self) -> Set[int]:
        return set().union(*(m.failed_task_ids for m in self.managers))

    @property
    def makespan(self) -> Optional[float]:
        """The last workflow's finish time (the stream starts at t=0)."""
        finishes = [m.finish_time for m in self.managers if m.finish_time is not None]
        return max(finishes) if finishes else None

    @property
    def workflow_makespans(self) -> List[float]:
        """Each finished workflow's own makespan, in arrival order."""
        return [m.makespan for m in self.managers if m.makespan is not None]

    def progress(self) -> float:
        return sum(len(m._completed) for m in self.managers) / self._tasks

    def __len__(self) -> int:
        """Tasks across every workflow, as ``len(graph)`` is for one."""
        return self._tasks
