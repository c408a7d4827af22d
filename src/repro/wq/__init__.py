"""A Work Queue-like master/worker job scheduler (simulated).

Mirrors the pieces of CCTools' Work Queue that the paper's evaluation
exercises:

* :mod:`~repro.wq.task` — tasks with declared/actual resources, category
  tags, and input/output file lists;
* :mod:`~repro.wq.link` — the master's egress network link with max-min
  fair sharing across concurrent transfers (the fig-4 bottleneck);
* :mod:`~repro.wq.worker` — workers that fetch inputs (with a per-worker
  cache for the shareable 1.4 GB BLAST input), run tasks concurrently
  within their resource capacity, and support graceful *drain* (finish
  running tasks, then exit — HTA's non-disruptive scale-down);
* :mod:`~repro.wq.dispatch` — the pure queue/run-table/retry state
  machine (:class:`DispatchCore`) behind the master's dispatch policy
  (declared resources → measured category estimate → conservative
  whole-worker), completion callbacks, live queue statistics for HTA;
* :mod:`~repro.wq.master` — the session/connection shell over the core:
  worker registration, partition liveness, outages, crash recovery;
* :mod:`~repro.wq.sharding` — the sharded data plane: the
  :class:`Foreman` tier splitting a workflow across N masters by a
  seeded hash of its submit order and aggregating them into one
  logical view;
* :mod:`~repro.wq.monitor` — the resource monitor recording per-category
  runtime/consumption of completed tasks (paper ref. [25]);
* :mod:`~repro.wq.runtime` — glue binding workers to Kubernetes pods;
* :mod:`~repro.wq.estimator` — task-size policies used by the master.
"""

from repro.wq.task import FileSpec, Task, TaskState, TaskResult
from repro.wq.link import Link, Transfer
from repro.wq.journal import JournalRecord, ReplayedState, TransactionJournal
from repro.wq.migration import (
    CheckpointSpec,
    MigrationConfig,
    MigrationCoordinator,
)
from repro.wq.monitor import CategoryStats, ResourceMonitor
from repro.wq.estimator import (
    AllocationEstimator,
    ConservativeEstimator,
    DeclaredResourceEstimator,
    MonitorEstimator,
)
from repro.wq.worker import Worker, WorkerState
from repro.wq.dispatch import DispatchConfig, DispatchCore
from repro.wq.master import Master, MasterStats
from repro.wq.sharding import (
    FailoverConfig,
    FailoverCoordinator,
    Foreman,
    merge_journals,
)
from repro.wq.runtime import WorkerPodRuntime
from repro.wq.factory import FactoryConfig, WorkerFactory

__all__ = [
    "FileSpec",
    "Task",
    "TaskState",
    "TaskResult",
    "Link",
    "Transfer",
    "JournalRecord",
    "ReplayedState",
    "TransactionJournal",
    "CheckpointSpec",
    "MigrationConfig",
    "MigrationCoordinator",
    "CategoryStats",
    "ResourceMonitor",
    "AllocationEstimator",
    "ConservativeEstimator",
    "DeclaredResourceEstimator",
    "MonitorEstimator",
    "Worker",
    "WorkerState",
    "DispatchConfig",
    "DispatchCore",
    "Master",
    "MasterStats",
    "FailoverConfig",
    "FailoverCoordinator",
    "Foreman",
    "merge_journals",
    "WorkerPodRuntime",
    "FactoryConfig",
    "WorkerFactory",
]
