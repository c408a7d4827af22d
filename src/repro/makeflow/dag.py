"""The workflow DAG: tasks as nodes, file dependencies as edges.

"The nodes of the graph are jobs to execute, and the edges of the graph
represent dependencies between jobs" (§II-A). Dependencies are derived
from files: task B depends on task A iff A produces (one of its outputs)
a file B consumes. Files no task produces are *initial* inputs assumed
present at the master.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Sequence, Set

from repro.wq.task import Task


class CycleError(ValueError):
    """The rules form a dependency cycle; not a DAG."""


#: The edge set of every task that has none on that side.
_NO_EDGES: FrozenSet[int] = frozenset()


class WorkflowGraph:
    """An immutable DAG over :class:`~repro.wq.task.Task` objects."""

    def __init__(self, tasks: Sequence[Task]):
        if not tasks:
            raise ValueError("a workflow needs at least one task")
        self.tasks: List[Task] = list(tasks)
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task objects in workflow")

        # Producer map: file name -> producing task id.
        self.producer: Dict[str, int] = {}
        for t in self.tasks:
            for f in t.outputs:
                if f.name in self.producer:
                    raise ValueError(
                        f"file {f.name!r} produced by two tasks "
                        f"(#{self.producer[f.name]} and #{t.id})"
                    )
                self.producer[f.name] = t.id

        # Edges: dependencies[task id] = set of prerequisite task ids. A
        # task without edges maps to the shared empty frozenset: a bag of
        # independent tasks allocates no per-task sets.
        no_edges = _NO_EDGES
        self.dependencies: Dict[int, AbstractSet[int]] = dict.fromkeys(ids, no_edges)
        self.dependents: Dict[int, AbstractSet[int]] = dict.fromkeys(ids, no_edges)
        dependencies, dependents = self.dependencies, self.dependents
        has_edges = False
        for t in self.tasks:
            tid = t.id
            for f in t.inputs:
                producer = self.producer.get(f.name)
                if producer is not None and producer != tid:
                    has_edges = True
                    deps = dependencies[tid]
                    if deps is no_edges:
                        deps = dependencies[tid] = set()
                    deps.add(producer)
                    users = dependents[producer]
                    if users is no_edges:
                        users = dependents[producer] = set()
                    users.add(tid)

        self._by_id: Dict[int, Task] = dict(zip(ids, self.tasks))
        if has_edges:
            # Without edges every task is a root: nothing can cycle.
            self._assert_acyclic()

    # ------------------------------------------------------------ structure
    def _assert_acyclic(self) -> None:
        order = self.topological_order()
        if len(order) != len(self.tasks):
            in_cycle = set(self._by_id) - {t.id for t in order}
            raise CycleError(f"workflow has a dependency cycle involving tasks {sorted(in_cycle)}")

    def topological_order(self) -> List[Task]:
        """Kahn's algorithm; stable by task id among ready candidates."""
        indegree = {tid: len(deps) for tid, deps in self.dependencies.items()}
        ready = deque(sorted(tid for tid, d in indegree.items() if d == 0))
        order: List[Task] = []
        while ready:
            tid = ready.popleft()
            order.append(self._by_id[tid])
            dependents = self.dependents[tid]
            if not dependents:
                continue
            for dep in sorted(dependents):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        return order

    def task(self, task_id: int) -> Task:
        return self._by_id[task_id]

    def roots(self) -> List[Task]:
        """Tasks with no prerequisites — runnable immediately."""
        return [t for t in self.tasks if not self.dependencies[t.id]]

    def initial_files(self) -> Set[str]:
        """Input files no task produces (present at the master at t=0)."""
        consumed = {f.name for t in self.tasks for f in t.inputs}
        return consumed - set(self.producer)

    def final_outputs(self) -> Set[str]:
        """Output files no task consumes — the workflow's products."""
        consumed = {f.name for t in self.tasks for f in t.inputs}
        return set(self.producer) - consumed

    # ------------------------------------------------------------- analysis
    def category_counts(self) -> Dict[str, int]:
        """Tasks per category — the stage structure of fig 10a."""
        return dict(Counter(t.category for t in self.tasks))

    def categories(self) -> List[str]:
        """Categories in first-appearance (typically stage) order."""
        seen: List[str] = []
        for t in self.tasks:
            if t.category not in seen:
                seen.append(t.category)
        return seen

    def depth(self) -> int:
        """Length of the longest dependency chain (levels of the DAG)."""
        level: Dict[int, int] = {}
        for t in self.topological_order():
            deps = self.dependencies[t.id]
            level[t.id] = 1 + max((level[d] for d in deps), default=0)
        return max(level.values())

    def width_by_level(self) -> Dict[int, int]:
        """Task count per DAG level — the available parallelism profile."""
        level: Dict[int, int] = {}
        for t in self.topological_order():
            deps = self.dependencies[t.id]
            level[t.id] = 1 + max((level[d] for d in deps), default=0)
        return dict(Counter(level.values()))

    def total_execute_seconds(self) -> float:
        """Serial work in the DAG (sum of execute times)."""
        return sum(t.execute_s for t in self.tasks)

    def critical_path_seconds(self) -> float:
        """Lower bound on makespan with infinite resources (no transfers)."""
        finish: Dict[int, float] = {}
        for t in self.topological_order():
            deps = self.dependencies[t.id]
            start = max((finish[d] for d in deps), default=0.0)
            finish[t.id] = start + t.execute_s
        return max(finish.values())

    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, task: Task) -> bool:
        """True iff ``task`` itself is one of this graph's tasks."""
        return self._by_id.get(task.id) is task

    def __iter__(self) -> Iterable[Task]:
        return iter(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WorkflowGraph tasks={len(self.tasks)} depth={self.depth()}>"
