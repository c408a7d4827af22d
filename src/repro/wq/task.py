"""Tasks: the unit of HTC work.

A task carries two resource descriptions, which the paper is careful to
distinguish:

* ``declared`` — what the user *says* the task needs (often ``None``:
  unknown, triggering the conservative whole-worker policy of §III-A);
* ``footprint`` — what the task *actually* uses, observed by the resource
  monitor when it completes and fed back into category estimates (§IV-A).

Execution is modelled in three phases a worker walks through: fetch
inputs (over the shared master link, honouring per-worker caches), execute
(``execute_s`` wall seconds, busying ``cpu_fraction`` of the allocated
cores — I/O-bound tasks run with low CPU), and return outputs.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple, Optional, Tuple

from repro.cluster.resources import FIT_EPSILON, ResourceVector

_task_ids = itertools.count(1)


class _FileSpecFields(NamedTuple):
    name: str
    size_mb: float
    cacheable: bool = False


class FileSpec(_FileSpecFields):
    """A named input/output file.

    ``cacheable`` inputs (reference databases, shared indexes) are kept in
    the worker's cache after first fetch — the mechanism that makes the
    paper's coarse-grained worker configuration win once resources are
    known (one 1.4 GB transfer serves every BLAST task on the node).
    """

    __slots__ = ()

    # A NamedTuple body cannot override __new__, hence this subclass.
    def __new__(cls, name: str, size_mb: float, cacheable: bool = False) -> "FileSpec":
        if size_mb < 0:
            raise ValueError(f"file {name!r}: negative size")
        return tuple.__new__(cls, (name, size_mb, cacheable))


class TaskState(enum.Enum):
    WAITING = "waiting"
    FETCHING = "fetching"    # inputs in flight to the worker
    RUNNING = "running"      # executing
    MIGRATING = "migrating"  # paused: checkpoint being cut/shipped
    RETURNING = "returning"  # outputs in flight to the master
    DONE = "done"
    FAILED = "failed"        # worker killed mid-run; will be resubmitted


class TaskResult(NamedTuple):
    """Completion record, as Work Queue would report to the manager."""

    task_id: int
    category: str
    worker_name: str
    submit_time: float
    dispatch_time: float
    start_time: float      # execution start (inputs fetched)
    finish_time: float     # outputs delivered to master
    execute_seconds: float
    measured_resources: ResourceVector
    attempts: int

    @property
    def turnaround(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def overhead_seconds(self) -> float:
        """Non-compute time: queueing plus data movement."""
        return self.turnaround - self.execute_seconds


class Task:
    """A schedulable job; see module docstring for the execution model."""

    # Tasks are the highest-volume mutable objects in a run (one per job
    # plus retries/speculative copies); slots cut their per-instance
    # memory and speed up the attribute access the dispatch loop lives on.
    __slots__ = (
        "id", "category", "command", "tag", "priority", "execute_s",
        "cpu_fraction", "footprint", "declared", "inputs", "outputs",
        "state", "attempts", "submit_time", "dispatch_time", "start_time",
        "finish_time", "allocation", "min_allocation", "speculation_of",
        "result", "checkpoint", "progress_s", "payload_corrupt",
        "checkpoint_corrupt", "holder",
    )

    def __init__(
        self,
        category: str,
        *,
        execute_s: float,
        footprint: ResourceVector,
        declared: Optional[ResourceVector] = None,
        cpu_fraction: float = 1.0,
        inputs: Tuple[FileSpec, ...] = (),
        outputs: Tuple[FileSpec, ...] = (),
        command: str = "",
        tag: str = "",
        priority: int = 0,
        checkpoint=None,
    ) -> None:
        if execute_s < 0:
            raise ValueError(f"execute_s must be non-negative, got {execute_s}")
        if not 0.0 <= cpu_fraction <= 1.0:
            raise ValueError(f"cpu_fraction must be in [0,1], got {cpu_fraction}")
        # ResourceVector's is_nonnegative, is_zero and fits_in, unrolled;
        # past the first test no component is below -eps, so is_zero's
        # abs(x) <= eps is x <= eps.
        eps = FIT_EPSILON
        fc, fm, fd = footprint
        if not (fc >= -eps and fm >= -eps and fd >= -eps) or (
            fc <= eps and fm <= eps and fd <= eps
        ):
            raise ValueError(f"footprint must be positive, got {footprint}")
        if declared is not None:
            dc, dm, dd = declared
            if not (fc <= dc + eps and fm <= dm + eps and fd <= dd + eps):
                raise ValueError(
                    f"footprint {footprint} exceeds declared {declared}; "
                    "declare at least what the task uses"
                )
        self.id = next(_task_ids)
        self.category = category
        self.command = command or f"{category}-{self.id}"
        self.tag = tag
        #: Dispatch precedence: higher runs first (Work Queue semantics);
        #: FIFO among equal priorities.
        self.priority = priority
        self.execute_s = execute_s
        self.cpu_fraction = cpu_fraction
        self.footprint = footprint
        self.declared = declared
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)

        self.state = TaskState.WAITING
        self.attempts = 0
        self.submit_time: Optional[float] = None
        self.dispatch_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: Resources reserved on the worker for this run (set at dispatch).
        self.allocation: Optional[ResourceVector] = None
        #: Escalated allocation floor after a resource-exhaustion kill
        #: (Work Queue's max-allocation retry); survives retries.
        self.min_allocation: Optional[ResourceVector] = None
        #: Set on speculative copies: the id of the straggler this task
        #: duplicates (first completion wins; the loser is cancelled).
        self.speculation_of: Optional[int] = None
        self.result: Optional[TaskResult] = None
        #: Checkpoint model (a :class:`repro.wq.migration.CheckpointSpec`)
        #: or ``None`` for tasks that cannot be migrated.
        self.checkpoint = checkpoint
        #: Durable progress: execute-seconds already banked in a shipped
        #: checkpoint. Survives retries (the checkpoint lives with the
        #: master); only a cold master restart resets it.
        self.progress_s = 0.0
        #: Value-fault ground truth for the *current* attempt: the
        #: delivered result payload is silently corrupted (set by the
        #: worker at execution start, caught — or not — by the master's
        #: content-digest verification on delivery).
        self.payload_corrupt = False
        #: Ground truth for the checkpoint currently in flight: the
        #: shipped snapshot is corrupted and must not be resumed from.
        self.checkpoint_corrupt = False
        #: The worker run that holds the current attempt: set when a
        #: worker takes the task or the master adopts its run, cleared
        #: by :meth:`reset_for_retry` and when the run leaves its
        #: worker. Only the holder mirrors its run-local execution state
        #: into :attr:`state`; an orphaned run (its worker was declared
        #: lost and the task requeued) must not clobber the next holder's.
        self.holder: Optional[object] = None

    # ---------------------------------------------------------------- sizes
    def input_bytes_mb(self, cached: bool = False) -> float:
        """Total input volume; with ``cached`` only non-cacheable files."""
        return sum(f.size_mb for f in self.inputs if not (cached and f.cacheable))

    def output_bytes_mb(self) -> float:
        return sum(f.size_mb for f in self.outputs)

    def current_cpu_cores(self) -> float:
        """Instantaneous CPU while in the execute phase, in cores."""
        if self.state is not TaskState.RUNNING or self.allocation is None:
            return 0.0
        # A task burns its *footprint* cores (modulated by cpu_fraction),
        # not its possibly-padded allocation.
        return min(self.footprint.cores, self.allocation.cores) * self.cpu_fraction

    def remaining_execute_s(self) -> float:
        """Execute-seconds left after resuming from banked progress."""
        return max(0.0, self.execute_s - self.progress_s)

    def reset_for_retry(self) -> None:
        """Return the task to the waiting state after a worker loss.

        ``progress_s`` is deliberately preserved: a shipped checkpoint is
        durable master-side state, so the next attempt resumes from it.
        """
        self.state = TaskState.WAITING
        self.holder = None
        self.dispatch_time = None
        self.start_time = None
        self.allocation = None
        self.payload_corrupt = False
        self.checkpoint_corrupt = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Task #{self.id} {self.category!r} {self.state.value}>"
