"""Property: the change-fed observers equal their literal folds and scans.

Two periodic observers read the data plane: the accountant's RS/RIU
gauges and the metrics server's scrape. Both are now fed by changes.
Each worker refolds its in-use cores and CPU usage over its runs' own
states at every transition, the dispatch core keeps RS and RIU as
running totals of the per-worker terms, and a scrape reads only the pods
the API server's pod feed noted (plus pods whose plain usage callable
must be polled), keeping each window as run-length samples.

This module drives random histories through a real cluster, master and
pod runtime. It interleaves submits, migrations, evacuations, drains,
kills, pod deletions and direct phase changes, partitions with heals and
liveness expiries, orphan kills, node kills, polled pods with recycled
names, and an unsubscribed scrape. After every step it requires:

* ``supplied_cores`` / ``cores_in_use`` to equal
  :mod:`tests.reference.accounting_literal` with ``==`` and the same
  type, and every worker's ``cores_in_use`` / ``cpu_usage`` to equal the
  literal fold over its runs;
* ``pod_usage`` of every pod ever created, and ``average_utilization``
  over the worker pods, to equal
  :class:`tests.reference.metrics_server_literal.LiteralMetricsServer`
  scraping at the same instants, with float ``==``.

Footprints of 1/3 and 0.9 cores make a running ``+=``/``-=`` sum drift
from the fold and keep RIU off its dyadic route; CPU fractions below one
do the same for the scrape.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.chaos import ChaosInjector
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.soak.invariants import check_accounting_aggregates
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.migration import CheckpointSpec
from repro.wq.runtime import WorkerPodRuntime
from repro.wq.task import FileSpec, Task
from repro.wq.worker import Worker, WorkerState
from tests.reference import accounting_literal
from tests.reference.accounting_literal import (
    mismatches,
    worker_cores_in_use,
    worker_cpu_usage,
)
from tests.reference.metrics_server_literal import LiteralMetricsServer

FOOTPRINTS = [
    ResourceVector(1 / 3, 256, 64),
    ResourceVector(0.9, 512, 128),
    ResourceVector(1, 512, 128),
    ResourceVector(2, 1024, 256),
]
CPU_FRACTIONS = [1.0, 0.5, 0.3]
POD_CORES = [1.0, 2.0, 3.0]
IMAGE = ContainerImage("wq-worker", 50.0)
CKPT = CheckpointSpec(interval_s=2.0, cost_s=1.0, size_mb=5.0)
APP = "wq-worker"

submit_st = st.tuples(
    st.just("submit"),
    st.sampled_from([0, 0, 1, 1, 2, 3]),
    st.integers(1, 5),
    st.sampled_from([3.0, 10.0, 40.0]),
    st.integers(0, len(CPU_FRACTIONS) - 1),
    st.booleans(),  # checkpointable
)
advance_st = st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0, 4.0, 12.0, 30.0]))
partition_st = st.tuples(
    st.just("partition"), st.integers(0, 99), st.sampled_from([3.0, 45.0])
)
# Submits, advances and partitions are drawn more often than the rest:
# they are what keeps runs moving and orphans around.
op_st = st.one_of(
    st.tuples(st.just("worker_pod"), st.integers(0, len(POD_CORES) - 1)),
    submit_st,
    submit_st,
    advance_st,
    advance_st,
    advance_st,
    st.tuples(st.just("scrape")),
    st.tuples(st.just("migrate"), st.integers(0, 99)),
    st.tuples(st.just("evacuate"), st.integers(0, 99)),
    st.tuples(st.just("drain"), st.integers(0, 99)),
    st.tuples(st.just("kill"), st.integers(0, 99)),
    st.tuples(st.just("delete_pod"), st.integers(0, 99)),
    st.tuples(st.just("finish_pod"), st.integers(0, 99)),
    partition_st,
    partition_st,
    st.tuples(st.just("orphan_kill"), st.integers(0, 99)),
    st.tuples(st.just("orphan"), st.integers(0, 99), st.booleans()),
    st.tuples(st.just("orphan"), st.integers(0, 99), st.booleans()),
    st.tuples(st.just("kill_node"), st.integers(0, 99)),
    st.tuples(st.just("plain_pod"), st.integers(0, 2), st.sampled_from([None, 0.25, 1.0])),
    st.tuples(st.just("poke"), st.integers(0, 99), st.sampled_from([0.0, 0.4, 1 / 3])),
    st.tuples(st.just("unsubscribe")),
)


class History:
    """A cluster, a master, the pod runtime and a literal scrape shadow."""

    def __init__(self) -> None:
        self.engine = engine = Engine()
        self.cluster = Cluster(
            engine,
            RngRegistry(7),
            ClusterConfig(
                machine_type=N1_STANDARD_4,
                min_nodes=3,
                max_nodes=5,
                node_reservation_mean_s=20.0,
                node_reservation_std_s=0.0,
                registry_jitter_cv=0.0,
            ),
        )
        self.api = self.cluster.api
        self.metrics = self.cluster.metrics
        # The test scrapes both servers at the same instants itself.
        self.metrics._loop.stop()
        self.literal = LiteralMetricsServer(
            engine, self.api, window=self.metrics.window
        )
        self.master = Master(
            engine,
            Link(engine, 200.0),
            config=DispatchConfig(liveness_timeout_s=20.0),
            estimator=DeclaredResourceEstimator(),
        )
        self.runtime = WorkerPodRuntime(
            engine, self.api, self.cluster.kubelets, self.master
        )
        self.chaos = ChaosInjector(engine, self.api, RngRegistry(3), cloud=self.cluster.cloud)
        #: Every pod ever created, deleted ones included (reads by name).
        self.pods: List[Pod] = []
        #: Usage cells behind the polled pods' plain callables.
        self.cells: Dict[str, List[float]] = {}
        self.seq = 0

    # ------------------------------------------------------------ checks
    def workers(self) -> List[Worker]:
        seen = {id(w): w for w in self.runtime.workers.values()}
        seen.update((id(w), w) for w in self.master.workers.values())
        return list(seen.values())

    def check(self, step) -> None:
        bad = mismatches(master=self.master)
        master = self.master
        for name, value in (
            ("supplied_cores", master.supplied_cores()),
            ("cores_in_use", master.cores_in_use()),
        ):
            literal = getattr(accounting_literal, name)(master)
            if type(value) is not type(literal):
                bad.append((f"type({name})", repr(value), repr(literal)))
        for w in self.workers():
            for name, value, literal in (
                ("cores_in_use", w.cores_in_use(), worker_cores_in_use(w)),
                ("cpu_usage", w.cpu_usage(), worker_cpu_usage(w)),
            ):
                if repr(value) != repr(literal):
                    bad.append((f"{w.name}.{name}", value, literal))
        ms, lit = self.metrics, self.literal
        for pod in self.pods:
            got, want = ms.pod_usage(pod), lit.pod_usage(pod)
            if repr(got) != repr(want):
                bad.append((f"pod_usage({pod.name})", got, want))
        worker_pods = [p for p in self.pods if p.meta.labels.get("app") == APP]
        for group in (worker_pods, worker_pods[::2], self.pods):
            got, want = ms.average_utilization(group), lit.average_utilization(group)
            if repr(got) != repr(want):
                bad.append(("average_utilization", got, want))
        stack = SimpleNamespace(master=master, cluster=self.cluster, runtime=self.runtime)
        bad += [(v.invariant, v.detail, None) for v in check_accounting_aggregates(stack)]
        assert not bad, (step, bad)

    def scrape(self) -> None:
        self.metrics.scrape()
        self.literal.scrape()

    def advance(self, seconds: float) -> None:
        """Run in 3 s steps, scraping both servers and checking after each."""
        end = self.engine.now + seconds
        while self.engine.now < end:
            self.engine.run(until=min(end, self.engine.now + 3.0))
            self.check(("t", self.engine.now))
            self.scrape()
            self.check(("scraped", self.engine.now))

    # ----------------------------------------------------------- picking
    def _live_workers(self) -> List[Worker]:
        return [
            w for w in self.workers()
            if w.state not in (WorkerState.STOPPED, WorkerState.KILLED)
        ]

    def _pick(self, items, i: int):
        return items[i % len(items)] if items else None

    def _new_pod(self, name: str, cores: float, app: str) -> Pod:
        pod = Pod(
            name,
            PodSpec(IMAGE, ResourceVector(cores, 1024, 1024), labels={"app": app}),
            creation_time=self.engine.now,
        )
        self.api.create(pod)
        self.pods.append(pod)
        return pod

    # ---------------------------------------------------------- history
    def apply(self, op) -> None:
        kind = op[0]
        engine, master = self.engine, self.master
        self.seq += 1
        if kind == "worker_pod":
            self._new_pod(f"wp-{self.seq}", POD_CORES[op[1]], APP)
        elif kind == "submit":
            _, foot_i, count, execute_s, frac_i, checkpointable = op
            foot = FOOTPRINTS[foot_i]
            for j in range(count):
                master.submit(
                    Task(
                        "c",
                        execute_s=execute_s + j,
                        footprint=foot,
                        declared=foot,
                        cpu_fraction=CPU_FRACTIONS[frac_i],
                        inputs=(FileSpec("in", 20.0),),
                        outputs=(FileSpec("out", 100.0),),
                        checkpoint=CKPT if checkpointable else None,
                    )
                )
        elif kind == "advance":
            self.advance(op[1])
        elif kind == "scrape":
            self.scrape()
        elif kind == "migrate":
            worker = self._pick(self._live_workers(), op[1])
            if worker is not None:
                for run in list(worker.runs.values()):
                    if worker.migrate_out(run.task):
                        break
        elif kind == "evacuate":
            worker = self._pick(self._live_workers(), op[1])
            if worker is not None and master.workers.get(worker.name) is worker:
                master.evacuate_worker(worker)
        elif kind == "drain":
            worker = self._pick(self._live_workers(), op[1])
            if worker is not None:
                worker.drain()
        elif kind == "kill":
            worker = self._pick(self._live_workers(), op[1])
            if worker is not None:
                worker.kill()
        elif kind == "delete_pod":
            pod = self._pick(self.api.pods(), op[1])
            if pod is not None:
                self.api.try_delete("Pod", pod.name)
        elif kind == "finish_pod":
            # A phase change with no API write behind it.
            running = [p for p in self.api.pods() if p.phase is PodPhase.RUNNING]
            pod = self._pick(running, op[1])
            if pod is not None:
                pod.mark_finished(engine.now)
        elif kind == "partition":
            worker = self._pick(self._live_workers(), op[1])
            if worker is not None and worker.state is WorkerState.READY:
                worker.partition()
                worker.master.worker_unreachable(worker)
                engine.call_in(op[2], worker.heal)
        elif kind == "orphan_kill":
            # A worker the master declared lost but that still runs.
            orphans = [
                w for w in self._live_workers()
                if master.workers.get(w.name) is not w and w.runs
            ]
            worker = self._pick(orphans, op[1])
            if worker is not None:
                worker.kill()
        elif kind == "orphan":
            # Partition a busy worker past the liveness timeout, so its
            # tasks requeue while it keeps executing; maybe kill it then.
            busy = [
                w for w in self._live_workers()
                if w.state is WorkerState.READY and w.runs
            ]
            worker = self._pick(busy, op[1])
            if worker is not None:
                worker.partition()
                worker.master.worker_unreachable(worker)
                engine.call_in(60.0, worker.heal)
                self.advance(master.liveness_timeout_s + 3.0)
                if op[2]:
                    worker.kill()
        elif kind == "kill_node":
            node = self._pick(self.api.nodes(), op[1])
            if node is not None:
                self.chaos.kill_node(node)
        elif kind == "plain_pod":
            # Non-worker pods whose plain usage callable is polled; a
            # small name space recycles names of deleted pods.
            _, slot, usage = op
            name = f"plain-{slot}"
            if self.api.try_get("Pod", name) is None:
                pod = self._new_pod(name, 1.0, "other")
                if usage is not None:
                    cell = self.cells[name] = [usage]
                    pod.cpu_usage_fn = lambda cell=cell: cell[0]
        elif kind == "poke":
            names = sorted(self.cells)
            name = self._pick(names, op[1])
            if name is not None:
                self.cells[name][0] = op[2]
        elif kind == "unsubscribe":
            # The next scrape walks the store instead of the feed.
            self.metrics.stop()


@settings(max_examples=200, deadline=None)
@given(
    pods=st.lists(st.integers(0, len(POD_CORES) - 1), min_size=1, max_size=4),
    first=submit_st,
    ops=st.lists(op_st, min_size=1, max_size=40),
)
# The first worker is orphaned, its copy killed, the task's next worker
# orphaned too (the requeue clears the task's start time), then that
# orphan migrates: it must bank progress from its own run's start.
@example(
    pods=[0, 0],
    first=("submit", 0, 3, 40.0, 0, True),
    ops=[("orphan", 0, False), ("orphan_kill", 0), ("orphan", 0, False), ("migrate", 0)],
)
def test_change_fed_observers_equal_literal_folds_and_scans(pods, first, ops):
    h = History()
    h.check("start")
    # Worker pods come up (image pull, worker connect) before the history.
    for cores_i in pods:
        h.apply(("worker_pod", cores_i))
    h.apply(first)
    h.advance(24.0)
    for step, op in enumerate(ops):
        h.apply(op)
        h.check((step, op))
    h.advance(120.0)
