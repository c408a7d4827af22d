"""Property: every maintained accounting aggregate equals its literal rescan.

The accountant's gauges are served from values kept on the write paths:
RS and RIU from a memo against the dispatch core's gauge revision, the
node counts from the API server's node tally, and ``list(kind,
selector)`` from a per-selector snapshot. This module drives random
histories through the real objects and, after every step, compares each
maintained value with the verbatim rescan in
:mod:`tests.reference.accounting_literal` — floats with ``==``, lists by
identity and order.

* The wq histories register, drain, kill, quarantine (and release on
  probation), migrate out, partition and crash workers and masters while
  tasks start and finish; with two shards the crash hits one shard under
  a :class:`~repro.wq.sharding.Foreman`. Footprints of 1/3 and 0.9 cores
  make a running ``+=``/``-=`` sum drift from the fold.
* The cluster histories land same-instant reservation bursts, add nodes
  that are not ready yet and flip them, remove, kill and preempt nodes,
  flag a node deleted while it stays stored, cut the API server's
  notification plane, and create, modify and delete labelled pods.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.chaos import ChaosInjector
from repro.cluster.cloud import PreemptiblePoolConfig
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4, Node
from repro.cluster.pod import Pod, PodSpec
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.health import HealthConfig
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.migration import CheckpointSpec
from repro.wq.sharding import Foreman
from repro.wq.task import FileSpec, Task, TaskState
from repro.wq.worker import Worker, WorkerState
from tests.reference.accounting_literal import mismatches

# ------------------------------------------------------------------- wq
FOOTPRINTS = [
    ResourceVector(1 / 3, 256, 64),
    ResourceVector(0.9, 512, 128),
    ResourceVector(1, 512, 128),
    ResourceVector(2, 1024, 256),
]
CAPACITIES = [ResourceVector(4, 4096, 4096), ResourceVector(2, 2048, 2048)]
CKPT = CheckpointSpec(interval_s=2.0, cost_s=1.0, size_mb=5.0)

wq_op_st = st.one_of(
    st.tuples(st.just("register"), st.integers(0, len(CAPACITIES) - 1)),
    st.tuples(
        st.just("submit"),
        # Mostly fractional footprints, several at a time.
        st.sampled_from([0, 0, 0, 1, 1, 2, 3]),
        st.integers(1, 6),
        st.sampled_from([2.0, 8.0, 30.0]),
        st.booleans(),  # checkpointable
    ),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.5, 4.0, 20.0])),
    st.tuples(st.just("drain"), st.integers(0, 99)),
    st.tuples(st.just("kill"), st.integers(0, 99)),
    st.tuples(st.just("quarantine"), st.integers(0, 99)),
    st.tuples(st.just("migrate"), st.integers(0, 99)),
    st.tuples(st.just("partition"), st.integers(0, 99), st.sampled_from([3.0, 60.0])),
    st.tuples(st.just("crash"), st.integers(0, 99), st.sampled_from([2.0, 10.0])),
)


class WqHistory:
    """One master (or a two-shard foreman) plus the workers it has seen."""

    def __init__(self, shards: int) -> None:
        self.engine = Engine()
        link = Link(self.engine, 200.0)
        config = DispatchConfig(
            health=HealthConfig(probation_after_s=15.0),
            liveness_timeout_s=40.0,
            recovery_grace_s=35.0,
        )
        self.shards: List[Master] = [
            Master(
                self.engine,
                link,
                config=config,
                estimator=DeclaredResourceEstimator(),
                name=f"m{i}",
            )
            for i in range(shards)
        ]
        self.master = (
            Foreman(self.engine, self.shards, seed=3)
            if shards > 1
            else self.shards[0]
        )
        self.workers: List[Worker] = []

    def check(self, step) -> None:
        bad = mismatches(master=self.master)
        if len(self.shards) > 1:
            for shard in self.shards:
                bad += [(f"{shard.name}.{n}", a, b) for n, a, b in mismatches(master=shard)]
        assert not bad, (step, bad)

    def advance(self, seconds: float) -> None:
        """Run the engine in half-second steps, checking after each."""
        end = self.engine.now + seconds
        while self.engine.now < end:
            self.engine.run(until=min(end, self.engine.now + 0.5))
            self.check(("t", self.engine.now))

    def _pick(self, i: int):
        live = [
            w for w in self.workers
            if w.state not in (WorkerState.STOPPED, WorkerState.KILLED)
        ]
        return live[i % len(live)] if live else None

    def apply(self, op) -> None:
        kind = op[0]
        engine = self.engine
        if kind == "register":
            n = len(self.workers)
            shard = self.shards[n % len(self.shards)]
            self.workers.append(
                Worker(engine, shard, f"w{n}", CAPACITIES[op[1]], connect_latency=0.5)
            )
        elif kind == "submit":
            _, foot_i, count, execute_s, checkpointable = op
            foot = FOOTPRINTS[foot_i]
            for j in range(count):
                # Staggered runtimes end runs one at a time; inputs and
                # outputs keep FETCHING and RETURNING open across steps.
                self.master.submit(
                    Task(
                        "c",
                        execute_s=execute_s + j,
                        footprint=foot,
                        declared=foot,
                        inputs=(FileSpec("in", 20.0),),
                        outputs=(FileSpec("out", 200.0),),
                        checkpoint=CKPT if checkpointable else None,
                    )
                )
        elif kind == "advance":
            self.advance(op[1])
        elif kind == "drain":
            worker = self._pick(op[1])
            if worker is not None:
                worker.drain()
        elif kind == "kill":
            worker = self._pick(op[1])
            if worker is not None:
                worker.kill()
        elif kind == "quarantine":
            worker = self._pick(op[1])
            core = worker.master if worker is not None else None
            if core is not None and core.workers.get(worker.name) is worker:
                # The ledger's verdict; probation re-admits it 15 s later.
                core.health.restore_quarantine(worker.name)
                core._quarantine_worker(worker)
        elif kind == "migrate":
            worker = self._pick(op[1])
            if worker is not None:
                for run in list(worker.runs.values()):
                    if run.task.state is TaskState.RUNNING and worker.migrate_out(run.task):
                        break
        elif kind == "partition":
            worker = self._pick(op[1])
            if worker is not None and worker.state is WorkerState.READY:
                worker.partition()
                worker.master.worker_unreachable(worker)
                engine.call_in(op[2], worker.heal)
        elif kind == "crash":
            _, i, restart_s = op
            if isinstance(self.master, Foreman):
                self.master.crash_shard(i % len(self.shards), restart_delay_s=restart_s)
            else:
                self.master.crash(restart_delay_s=restart_s)


@settings(max_examples=80, deadline=None)
@given(
    shards=st.sampled_from([1, 2]),
    ops=st.lists(wq_op_st, min_size=1, max_size=60),
)
def test_wq_gauges_equal_literal_folds(shards, ops):
    h = WqHistory(shards)
    h.check("start")
    for step, op in enumerate(ops):
        h.apply(op)
        h.check((step, op))
    h.advance(300.0)


# -------------------------------------------------------------- cluster
IMAGE = ContainerImage("img", 10)
APPS = ["a", "b"]
SELECTORS = (
    ("Pod", {"app": "a"}),
    ("Pod", {"app": "b", "tier": "x"}),
    ("Node", {"preemptible": "true"}),
)
LATE_SELECTOR = ("Pod", {"tier": "x"})

cluster_op_st = st.one_of(
    st.tuples(st.just("burst"), st.booleans(), st.integers(1, 4)),
    st.tuples(st.just("raw_node"), st.booleans(), st.booleans()),
    st.tuples(st.just("ready"), st.integers(0, 99)),
    st.tuples(st.just("remove"), st.integers(0, 99)),
    st.tuples(st.just("kill_node"), st.integers(0, 99)),
    st.tuples(st.just("flag_deleted"), st.integers(0, 99)),
    st.tuples(st.just("delete_node"), st.integers(0, 99)),
    st.tuples(st.just("preempt"), st.integers(0, 99)),
    st.tuples(st.just("outage"), st.booleans()),
    st.tuples(st.just("pod"), st.integers(0, len(APPS) - 1), st.booleans()),
    st.tuples(st.just("delete_pod"), st.integers(0, 99)),
    st.tuples(st.just("modify_pod"), st.integers(0, 99)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0, 10.0, 35.0])),
)


class ClusterHistory:
    """A full control plane with a spot pool and a chaos injector."""

    def __init__(self) -> None:
        self.engine = Engine()
        rng = RngRegistry(11)
        self.cluster = Cluster(
            self.engine,
            rng,
            ClusterConfig(
                min_nodes=2,
                max_nodes=8,
                # A zero spread lands every reservation of a scan at the
                # same instant: the burst the tally has to survive.
                node_reservation_mean_s=30.0,
                node_reservation_std_s=0.0,
                node_idle_timeout_s=20.0,
                preemptible=PreemptiblePoolConfig(max_nodes=4, grace_period_s=5.0),
            ),
        )
        self.api = self.cluster.api
        self.cloud = self.cluster.cloud
        self.chaos = ChaosInjector(self.engine, self.api, rng, cloud=self.cloud)
        self.seq = 0

    def check(self, step) -> None:
        bad = mismatches(cluster=self.cluster, selectors=SELECTORS)
        assert not bad, (step, bad)

    def _node(self, i: int):
        nodes = self.api.nodes()
        return nodes[i % len(nodes)] if nodes else None

    def _pod(self, i: int):
        pods = self.api.pods()
        return pods[i % len(pods)] if pods else None

    def apply(self, op) -> None:
        kind = op[0]
        api, cloud = self.api, self.cloud
        self.seq += 1
        if kind == "burst":
            _, spot, k = op
            for _ in range(k):
                cloud._reserve_node(preemptible=spot)
        elif kind == "raw_node":
            _, spot, ready = op
            node = Node(f"raw-{self.seq}", N1_STANDARD_4, preemptible=spot)
            node.ready = ready
            api.create(node)
        elif kind == "ready":
            node = self._node(op[1])
            if node is not None:
                node.ready = not node.ready
        elif kind == "remove":
            node = self._node(op[1])
            if node is not None and not node.deleted:
                cloud._remove_node(node)
        elif kind == "kill_node":
            node = self._node(op[1])
            if node is not None:
                self.chaos.kill_node(node)
        elif kind == "flag_deleted":
            node = self._node(op[1])
            if node is not None:
                node.deleted = True  # stays stored until delete_node
        elif kind == "delete_node":
            node = self._node(op[1])
            if node is not None:
                api.try_delete("Node", node.name)
        elif kind == "preempt":
            node = self._node(op[1])
            if node is not None:
                cloud.begin_preemption(node)
        elif kind == "outage":
            if op[1]:
                api.begin_outage()
            else:
                api.end_outage()
        elif kind == "pod":
            _, app_i, tiered = op
            labels = {"app": APPS[app_i]}
            if tiered:
                labels["tier"] = "x"
            api.create(
                Pod(
                    f"p-{self.seq}",
                    PodSpec(IMAGE, ResourceVector(1, 512, 512), labels=labels),
                    creation_time=self.engine.now,
                )
            )
        elif kind == "delete_pod":
            pod = self._pod(op[1])
            if pod is not None:
                api.try_delete("Pod", pod.name)
        elif kind == "modify_pod":
            pod = self._pod(op[1])
            if pod is not None:
                api.mark_modified(pod)
        elif kind == "advance":
            end = self.engine.now + op[1]
            while self.engine.now < end:
                self.engine.run(until=min(end, self.engine.now + 1.0))
                self.check(("t", self.engine.now))


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(cluster_op_st, min_size=1, max_size=40))
def test_cluster_counts_and_selector_snapshots_equal_literal(ops):
    h = ClusterHistory()
    h.check("start")
    for step, op in enumerate(ops):
        h.apply(op)
        h.check((step, op))
    # A selector first asked for after the history builds its snapshot
    # from the current store.
    bad = mismatches(cluster=h.cluster, selectors=(LATE_SELECTOR,))
    assert not bad, bad
    h.engine.run(until=h.engine.now + 200.0)
    h.check("settled")
