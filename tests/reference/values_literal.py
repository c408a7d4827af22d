"""The hot value types as frozen dataclasses, kept as a test oracle.

These are :class:`~repro.cluster.resources.ResourceVector`, the seven
per-event records (:class:`~repro.wq.journal.JournalRecord`,
:class:`~repro.wq.task.TaskResult`, :class:`~repro.wq.dispatch.MasterStats`,
:class:`~repro.cluster.api.WatchEvent`, :class:`~repro.cluster.pod.PodEvent`,
:class:`~repro.hta.estimator.SimulatedTask` and
:class:`~repro.hta.estimator.PendingWorker`) and the per-task
:class:`~repro.wq.task.FileSpec` before they were rebuilt on ``tuple``,
kept verbatim so a property test can demand that the tuple-backed types
compute the same floats, hashes and reprs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cluster.api import WatchEventType
    from repro.cluster.objects import KubeObject
    from repro.wq.task import Task


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """An immutable (cores, memory_mb, disk_mb) triple.

    Arithmetic is component-wise; comparisons use the *fits* partial order
    (``a.fits_in(b)`` iff every component of ``a`` is ≤ the corresponding
    component of ``b``). Python's rich comparisons are deliberately not
    overloaded with the partial order, since ``not (a <= b)`` does not
    imply ``b <= a`` for vectors.
    """

    cores: float = 0.0
    memory_mb: float = 0.0
    disk_mb: float = 0.0
    #: Lazily memoized hash — vectors key the placement memo tables on
    #: the dispatch hot path, where the generated hash (a fresh tuple per
    #: call) showed up as a top cost. Excluded from eq/repr.
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.cores, self.memory_mb, self.disk_mb))
            object.__setattr__(self, "_hash", h)
        return h

    # ---------------------------------------------------------- constructors
    @staticmethod
    def zero() -> "ResourceVector":
        return ResourceVector(0.0, 0.0, 0.0)

    @staticmethod
    def of_cores(cores: float) -> "ResourceVector":
        """A vector with only the CPU dimension set (common in tests)."""
        return ResourceVector(cores=cores)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cores + other.cores,
            self.memory_mb + other.memory_mb,
            self.disk_mb + other.disk_mb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cores - other.cores,
            self.memory_mb - other.memory_mb,
            self.disk_mb - other.disk_mb,
        )

    def scale(self, factor: float) -> "ResourceVector":
        return ResourceVector(
            self.cores * factor, self.memory_mb * factor, self.disk_mb * factor
        )

    def clamp_floor(self, floor: float = 0.0) -> "ResourceVector":
        """Component-wise max with ``floor`` (used after subtraction)."""
        return ResourceVector(
            max(self.cores, floor),
            max(self.memory_mb, floor),
            max(self.disk_mb, floor),
        )

    def max_with(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            max(self.cores, other.cores),
            max(self.memory_mb, other.memory_mb),
            max(self.disk_mb, other.disk_mb),
        )

    def min_with(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            min(self.cores, other.cores),
            min(self.memory_mb, other.memory_mb),
            min(self.disk_mb, other.disk_mb),
        )

    # ------------------------------------------------------------ predicates
    def fits_in(self, capacity: "ResourceVector", epsilon: float = 1e-9) -> bool:
        """True iff this request fits within ``capacity`` component-wise.

        A small epsilon absorbs float drift from repeated add/subtract of
        allocations (e.g. 3 × 1/3-core tasks on a 1-core worker).
        """
        return (
            self.cores <= capacity.cores + epsilon
            and self.memory_mb <= capacity.memory_mb + epsilon
            and self.disk_mb <= capacity.disk_mb + epsilon
        )

    def is_zero(self, epsilon: float = 1e-9) -> bool:
        return (
            abs(self.cores) <= epsilon
            and abs(self.memory_mb) <= epsilon
            and abs(self.disk_mb) <= epsilon
        )

    def is_nonnegative(self, epsilon: float = 1e-9) -> bool:
        return (
            self.cores >= -epsilon
            and self.memory_mb >= -epsilon
            and self.disk_mb >= -epsilon
        )

    def any_positive(self, epsilon: float = 1e-9) -> bool:
        """True iff at least one component is strictly positive."""
        return self.cores > epsilon or self.memory_mb > epsilon or self.disk_mb > epsilon

    # --------------------------------------------------------------- derived
    def dominant_fraction_of(self, capacity: "ResourceVector") -> float:
        """Largest per-dimension fraction of ``capacity`` this vector uses.

        This is the *dominant share*: how many copies of this request fit
        in ``capacity`` is ``floor(1 / dominant_fraction)``. Dimensions with
        zero capacity and zero request are ignored; a positive request
        against zero capacity yields ``inf``.
        """
        fractions = []
        for need, cap in zip(self, capacity):
            if need <= 0:
                continue
            if cap <= 0:
                return float("inf")
            fractions.append(need / cap)
        return max(fractions) if fractions else 0.0

    def copies_fitting_in(self, capacity: "ResourceVector") -> int:
        """How many whole copies of this request fit in ``capacity``."""
        frac = self.dominant_fraction_of(capacity)
        if frac == 0.0:
            return 0 if capacity.is_zero() else 10**9  # a zero request "fits" unboundedly
        if frac == float("inf"):
            return 0
        return int(1.0 / frac + 1e-9)

    def __iter__(self) -> Iterator[float]:
        yield self.cores
        yield self.memory_mb
        yield self.disk_mb

    def __str__(self) -> str:
        return f"(cores={self.cores:g}, mem={self.memory_mb:g}MB, disk={self.disk_mb:g}MB)"


@dataclass(frozen=True, slots=True)
class TaskResult:
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


@dataclass(frozen=True, slots=True)
class JournalRecord:
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
class WatchEvent:
    """A change notification delivered to watchers of a kind."""

    type: WatchEventType
    obj: KubeObject
    time: float
    #: The kind's resourceVersion this event advances the watcher to.
    version: int = 0


@dataclass(frozen=True, slots=True)
class PodEvent:
    """A timestamped lifecycle event, as the informer would observe it."""

    time: float
    reason: str
    message: str = ""


@dataclass(frozen=True, slots=True)
class SimulatedTask:
    """A task as the estimator sees it: an allocation and a runtime guess.

    For running tasks ``remaining_s`` is the *predicted remaining* time
    (category mean minus elapsed, floored at zero); for waiting tasks it
    is the full predicted runtime.
    """

    resources: ResourceVector
    remaining_s: float

    def __post_init__(self) -> None:
        if self.remaining_s < 0:
            raise ValueError(f"remaining_s must be non-negative, got {self.remaining_s}")


@dataclass(frozen=True, slots=True)
class PendingWorker:
    """A worker pod requested but not ready; joins capacity at ``eta_s``."""

    capacity: ResourceVector
    eta_s: float


@dataclass(frozen=True, slots=True)
class FileSpec:
    """A named input/output file.

    ``cacheable`` inputs (reference databases, shared indexes) are kept in
    the worker's cache after first fetch — the mechanism that makes the
    paper's coarse-grained worker configuration win once resources are
    known (one 1.4 GB transfer serves every BLAST task on the node).
    """

    name: str
    size_mb: float
    cacheable: bool = False

    def __post_init__(self) -> None:
        if self.size_mb < 0:
            raise ValueError(f"file {self.name!r}: negative size")
