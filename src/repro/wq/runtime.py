"""Glue between Kubernetes pods and Work Queue workers.

"We align each worker container with an independent pod and manage the
life-cycle of each worker container directly through the Work Queue"
(§II-C). :class:`WorkerPodRuntime` watches pods carrying a label
(``app=<name>``) and, when one turns Running, starts a :class:`Worker`
inside it:

* the worker's capacity is the pod's resource request;
* its transfer rate is capped by the node's NIC;
* the pod's ``cpu_usage_fn`` is fed by the worker (so metrics-server →
  HPA observe real usage);
* deleting the pod **kills** the worker (tasks requeued) — HPA's path;
* a drained worker exiting gracefully completes its pod — HTA's path.

The runtime also keeps the fleet's :class:`DrainIndex`: the workers a
drain may still pick, in the order HTA's scale-down picks them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.api import KubeApiServer, WatchEvent, WatchEventType
from repro.cluster.kubelet import KubeletManager
from repro.cluster.pod import Pod, PodPhase
from repro.sim.engine import Engine, PeriodicTask
from repro.wq.master import Master
from repro.wq.worker import Worker, WorkerState


_READY = WorkerState.READY
_CONNECTING = WorkerState.CONNECTING


def _busy_drain_key(worker: Worker) -> Tuple[int, float]:
    return (len(worker.runs), -(worker.connected_time or 0.0))


class DrainIndex:
    """The READY and CONNECTING workers, kept in drain order.

    The drain order sorts by ``(len(runs), -(connected_time or 0.0))``:
    idle first, then fewest runs, then youngest. Ties keep the order in
    which the workers were added. The index holds the workers with no
    runs as a list sorted by ``(-(connected_time or 0.0), seq)``, where
    ``seq`` numbers the workers as they are added. The first ``count``
    of them are the first ``count`` in drain order, so a drain that
    only takes idle workers reads a slice. Busy workers are sorted only
    when a drain asks for more than the idle ones, and only those.

    The owner calls :meth:`add` when a worker starts, :meth:`update`
    whenever its state, its connect time or the emptiness of its runs
    set may have changed, and :meth:`discard` when it leaves the fleet.
    A worker that left READY/CONNECTING never returns to it, so once it
    is out it stays out; updates for it are ignored.
    """

    __slots__ = ("_next_seq", "_seq", "_idle_entry", "_idle")

    def __init__(self) -> None:
        self._next_seq = itertools.count()
        #: Every READY/CONNECTING worker -> its seq, in seq order.
        self._seq: Dict[Worker, int] = {}
        #: The idle ones -> their entry in :attr:`_idle`.
        self._idle_entry: Dict[Worker, Tuple[float, int, Worker]] = {}
        #: ``(-connected_time, seq, worker)`` for each idle one, sorted.
        #: The first two fields are unique, so two entries never compare
        #: their workers, and an entry is found by bisecting for itself.
        self._idle: List[Tuple[float, int, Worker]] = []

    def __len__(self) -> int:
        """READY and CONNECTING workers: the pool a drain can still shrink."""
        return len(self._seq)

    def add(self, worker: Worker) -> None:
        state = worker.state
        if state is _READY or state is _CONNECTING:
            self._seq[worker] = next(self._next_seq)
            self.update(worker)

    def discard(self, worker: Worker) -> None:
        if self._seq.pop(worker, None) is not None:
            entry = self._idle_entry.pop(worker, None)
            if entry is not None:
                del self._idle[bisect_left(self._idle, entry)]

    def update(self, worker: Worker) -> None:
        seq = self._seq.get(worker)
        if seq is None:
            return
        state = worker.state
        if state is not _READY and state is not _CONNECTING:
            self.discard(worker)
            return
        entries = self._idle_entry
        old = entries.get(worker)
        if worker.runs:
            if old is not None:
                del entries[worker]
                del self._idle[bisect_left(self._idle, old)]
            return
        entry = (-(worker.connected_time or 0.0), seq, worker)
        if entry != old:
            if old is not None:
                del self._idle[bisect_left(self._idle, old)]
            entries[worker] = entry
            insort(self._idle, entry)

    def first(self, count: int) -> List[Worker]:
        """The first ``count`` workers in drain order (all, if fewer)."""
        idle = self._idle
        if count <= len(idle):
            return [entry[2] for entry in idle[: max(count, 0)]]
        busy = sorted((w for w in self._seq if w.runs), key=_busy_drain_key)
        return [entry[2] for entry in idle] + busy[: count - len(idle)]


class WorkerPodRuntime:
    """Starts/stops workers as their pods come and go."""

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        kubelets: KubeletManager,
        master: Master,
        *,
        app_label: str = "wq-worker",
        on_worker_started: Optional[Callable[[Worker], None]] = None,
        resync_period_s: Optional[float] = None,
        master_selector: Optional[Callable[[Pod], Master]] = None,
    ) -> None:
        self.engine = engine
        self.api = api
        self.kubelets = kubelets
        self.master = master
        #: Sharded data plane hook: picks the master a new worker pod
        #: connects to (e.g. ``Foreman.master_for_pod``). None — the
        #: single-master default — uses :attr:`master` for every pod.
        self.master_selector = master_selector
        self.app_label = app_label
        self.on_worker_started = on_worker_started
        self.workers: Dict[str, Worker] = {}  # pod name -> worker
        #: The READY/CONNECTING members of :attr:`workers` in drain order.
        self.drain_index = DrainIndex()
        #: :class:`~repro.wq.worker.WorkerFleet` hook: every flip a worker
        #: reports goes straight to the drain index.
        self.worker_changed = self.drain_index.update
        self.workers_started = 0
        self.workers_killed = 0
        self.resyncs = 0
        self.pods_adopted = 0
        #: Pod kind-version as of the last full resync scan. Every event
        #: that could create adoptable work (a pod turning Running, a
        #: worker's pod being deleted or completed) bumps the Pod
        #: version, so an unchanged head means the relist would find
        #: nothing to adopt and can be skipped.
        self._resync_version = -1
        self._resync_loop: Optional[PeriodicTask] = None
        api.watch("Pod", self._on_pod_event, replay_existing=True)
        if resync_period_s is not None:
            self._resync_loop = PeriodicTask(engine, resync_period_s, self.resync)

    def close(self) -> None:
        """Unsubscribe from the API server (end of an experiment run)."""
        self.api.unwatch("Pod", self._on_pod_event)
        if self._resync_loop is not None:
            self._resync_loop.stop()
            self._resync_loop = None

    def resync(self) -> int:
        """Relist worker pods and adopt any Running pod without a worker.

        A pod that turned Running during an API outage (or whose watch
        event was silently dropped) would otherwise burn capacity forever
        with no worker process inside — the runtime's one reconcile rule,
        the same role client-go's periodic resync plays for informers.
        Returns the number of pods adopted."""
        if not self.api.available:
            return 0  # a relist would fail too
        self.resyncs += 1
        version = self.api.kind_version("Pod")
        if version == self._resync_version:
            return 0  # no pod writes since the last scan; see __init__
        adopted = 0
        for pod in self.api.list("Pod"):
            if not isinstance(pod, Pod):
                continue
            if pod.meta.labels.get("app") != self.app_label:
                continue
            if pod.phase is PodPhase.RUNNING and pod.name not in self.workers:
                self._start_worker(pod)
                adopted += 1
        self._resync_version = version
        self.pods_adopted += adopted
        return adopted

    def __enter__(self) -> "WorkerPodRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --------------------------------------------------------------- events
    def _on_pod_event(self, event: WatchEvent) -> None:
        pod = event.obj
        if not isinstance(pod, Pod) or pod.meta.labels.get("app") != self.app_label:
            return
        if event.type is WatchEventType.DELETED:
            # api._teardown_pod already invoked pod.on_stop → worker.kill();
            # nothing further needed, but drop our reference.
            worker = self.workers.pop(pod.name, None)
            if worker is not None:
                self.drain_index.discard(worker)
            return
        if pod.phase is PodPhase.RUNNING and pod.name not in self.workers:
            self._start_worker(pod)

    # --------------------------------------------------------------- worker
    def _start_worker(self, pod: Pod) -> None:
        nic = pod.node.machine_type.nic_bandwidth_mbps if pod.node is not None else None
        master = (
            self.master_selector(pod)
            if self.master_selector is not None
            else self.master
        )
        worker = Worker(
            self.engine,
            master,
            name=f"worker@{pod.name}",
            capacity=pod.spec.request,
            pod=pod,
            nic_bandwidth_mbps=nic,
            fleet=self,
        )
        self.workers[pod.name] = worker
        self.drain_index.add(worker)
        self.workers_started += 1
        pod.feed_usage(worker.cpu_usage)
        pod.on_stop = lambda _pod, w=worker: self._pod_stopped(w)
        if self.on_worker_started is not None:
            self.on_worker_started(worker)

    def _pod_stopped(self, worker: Worker) -> None:
        """The pod was deleted while running: hard-kill the worker."""
        if worker.state not in (WorkerState.STOPPED, WorkerState.KILLED):
            self.workers_killed += 1
            worker.kill()

    def worker_exited(self, worker: Worker) -> None:
        """Worker process ended. For a graceful stop, complete the pod so
        Kubernetes sees Succeeded (fig 9's final state)."""
        self.drain_index.discard(worker)
        pod = worker.pod
        if pod is None:
            return
        self.workers.pop(pod.name, None)
        if worker.state is WorkerState.STOPPED and not pod.phase.terminal:
            kubelet = self.kubelets.for_pod(pod)
            if kubelet is not None:
                kubelet.stop_container(pod, succeeded=True)
        if pod.phase.terminal or pod.deletion_requested:
            # Nothing calls into the worker through its pod any more
            # (a kill runs inside the deleted pod's on_stop, which
            # marks the pod Failed next), so the pair is not a cycle.
            pod.detach_workload()

    # ---------------------------------------------------------------- reads
    def worker_for(self, pod: Pod) -> Optional[Worker]:
        return self.workers.get(pod.name)

    def live_workers(self) -> List[Worker]:
        return [
            w
            for w in self.workers.values()
            if w.state in (WorkerState.CONNECTING, WorkerState.READY, WorkerState.DRAINING)
        ]
