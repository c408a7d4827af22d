"""Property: the indexed kube-scheduler binds exactly what the literal
list-scanning scheduler bound.

Every example replays one random cluster history twice on fresh engines
— once under :class:`~repro.cluster.scheduler.KubeScheduler`, once under
:class:`~tests.reference.scheduler_literal.LiteralScheduler` — with a
cloud controller (spot pool included) autoscaling for the
FailedScheduling pods in both. The histories mix:

* nodes of three machine types (``N1_STANDARD_4_RESERVED`` included),
  on-demand and preemptible, created ready or turned ready later, some
  cordoned, removed, killed by chaos or preempted with a grace window;
* pods with 1/3- and 0.9-core requests (float drift in every node's free
  cores, some of it right at ``fits_in``'s epsilon),
  whole-node and memory-bound requests, and preemptible / on-demand /
  machine-type node selectors, created in same-instant batches whose
  names (``w-9``, ``w-10``) are not in list order;
* pods finishing (freeing capacity), pods evicted, API outages and
  watch-drop windows (writes commit, kicks are lost).

Many nodes share a machine type, so equal free cores are common and the
name breaks the tie. Both runs must make the same binds at the same
times, record the same FailedScheduling events, and leave every pod and
node at the same resourceVersion; the indexed run's indexes must match
its store at the end.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.api import KubeApiServer
from repro.cluster.chaos import ChaosInjector
from repro.cluster.cloud import (
    CloudController,
    CloudControllerConfig,
    PreemptiblePoolConfig,
)
from repro.cluster.images import ContainerImage
from repro.cluster.node import (
    GKE_SMALL_3CPU,
    N1_STANDARD_4,
    N1_STANDARD_4_RESERVED,
    PREEMPTIBLE_LABEL,
    Node,
)
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.cluster.resources import ResourceVector
from repro.cluster.scheduler import KubeScheduler
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.soak.invariants import check_scheduler_indexes
from repro.telemetry.events import Tracer
from tests.reference.scheduler_literal import LiteralScheduler

MACHINES = [N1_STANDARD_4, GKE_SMALL_3CPU, N1_STANDARD_4_RESERVED]
REQUESTS = [
    ResourceVector(1 / 3, 256, 256),
    ResourceVector(0.9, 256, 256),  # 3 x 0.9 leaves 1.2999999999999998 of 4
    ResourceVector(1.3, 256, 256),  # ... which seats 1.3 only via fits_in's epsilon
    ResourceVector(1, 1_024, 1_024),
    ResourceVector(2, 2_048, 1_024),
    ResourceVector(3, 4_096, 1_024),
    ResourceVector(4, 1_024, 1_024),
    ResourceVector(1, 13 * 1_024, 1_024),  # memory-bound: cores fit, RAM may not
]
SELECTORS = [
    {},
    {},
    {PREEMPTIBLE_LABEL: "true"},
    {PREEMPTIBLE_LABEL: "false"},
    {"machine-type": GKE_SMALL_3CPU.name},
]
IMAGE = ContainerImage("img", 10)

pick = st.integers(0, 10**6)
node_op = st.tuples(
    st.just("node"),
    st.integers(0, len(MACHINES) - 1),
    st.booleans(),  # preemptible
    st.sampled_from([True, True, False]),  # ready at creation
    st.integers(1, 3),  # how many
)
pods_op = st.tuples(
    st.just("pods"),
    st.integers(0, len(REQUESTS) - 1),
    st.integers(0, len(SELECTORS) - 1),
    st.integers(1, 12),  # same-instant batch
)
op_st = st.one_of(
    node_op,
    pods_op,
    pods_op,
    st.tuples(st.just("ready"), pick),
    st.tuples(st.just("cordon"), pick),
    st.tuples(st.just("remove"), pick),
    st.tuples(st.just("kill"), pick),
    st.tuples(st.just("preempt"), pick),
    st.tuples(st.just("finish"), pick),
    st.tuples(st.just("finish"), pick),
    st.tuples(st.just("evict"), pick),
    st.tuples(st.just("outage"), st.sampled_from([0.5, 3.0, 12.0])),
    st.tuples(st.just("drop"), st.sampled_from(["Pod", "Node"]), st.sampled_from([2.0, 8.0])),
)
gap_st = st.sampled_from([0.0, 0.0, 0.0, 0.4, 1.0, 2.5, 7.0])
# Every history opens with some nodes and a pod batch, so most examples
# bind, tie-break and record FailedScheduling before the churn starts.
history_st = st.builds(
    lambda nodes, pods, rest: [(0.0, op) for op in nodes] + [(0.0, pods)] + rest,
    st.lists(node_op, min_size=1, max_size=3),
    pods_op,
    st.lists(st.tuples(gap_st, op_st), max_size=40),
)


class World:
    """One engine + API server + scheduler + cloud controller + chaos."""

    def __init__(self, scheduler_cls, seed: int) -> None:
        self.engine = engine = Engine()
        self.tracer = Tracer(lambda: engine.now)
        self.api = KubeApiServer(engine)
        self.scheduler = scheduler_cls(engine, self.api, tracer=self.tracer)
        if scheduler_cls is LiteralScheduler:
            # The literal still reads the strategy switch the scheduler
            # no longer has; least-requested is the only strategy left.
            self.scheduler.strategy = "least-requested"
        self.cloud = CloudController(
            engine,
            self.api,
            RngRegistry(seed),
            CloudControllerConfig(
                machine_type=N1_STANDARD_4_RESERVED,
                min_nodes=1,
                max_nodes=4,
                scan_period_s=5.0,
                reservation_mean_s=6.0,
                reservation_std_s=1.0,
                reservation_floor_s=2.0,
                idle_timeout_s=15.0,
                preemptible=PreemptiblePoolConfig(
                    machine_type=GKE_SMALL_3CPU, max_nodes=3, grace_period_s=4.0
                ),
            ),
        )
        self.chaos = ChaosInjector(engine, self.api, RngRegistry(seed), cloud=self.cloud)
        self.pods: List[Pod] = []
        self._seq = 0

    def _name(self, prefix: str) -> str:
        self._seq += 1
        return f"{prefix}-{self._seq}"

    def apply(self, op: tuple) -> None:
        kind = op[0]
        api, now = self.api, self.engine.now
        if kind == "node":
            _, machine, preemptible, ready, count = op
            for _ in range(count):
                node = Node(self._name("m"), MACHINES[machine], preemptible=preemptible)
                node.ready = ready
                node.ready_time = now if ready else None
                api.create(node)
        elif kind == "pods":
            _, request, selector, count = op
            spec = PodSpec(IMAGE, REQUESTS[request], node_selector=dict(SELECTORS[selector]))
            for _ in range(count):
                pod = Pod(self._name("w"), spec)
                api.create(pod)
                self.pods.append(pod)
        elif kind in ("ready", "cordon", "remove", "kill", "preempt"):
            nodes = api.nodes()
            if not nodes:
                return
            node = nodes[op[1] % len(nodes)]
            if kind == "ready":
                if not node.ready and not node.deleted:
                    node.ready = True
                    node.ready_time = now
                    api.mark_modified(node)
            elif kind == "cordon":
                node.unschedulable = True
                api.mark_modified(node)
            elif kind == "remove":
                self.cloud._remove_node(node)
            elif kind == "kill":
                self.chaos.kill_node(node)
            else:
                self.cloud.begin_preemption(node)
        elif kind == "finish":
            bound = [p for p in self.pods if p.node is not None and not p.phase.terminal]
            if not bound:
                return
            pod = bound[op[1] % len(bound)]
            if api.try_get("Pod", pod.name) is not pod:
                return
            if pod.phase is PodPhase.PENDING:
                pod.mark_running(now)
                api.mark_modified(pod)
            pod.mark_finished(now, succeeded=True)
            api.mark_modified(pod)
        elif kind == "evict":
            live = api.pods()
            if live:
                self.chaos.evict_pod(live[op[1] % len(live)])
        elif kind == "outage":
            api.begin_outage()
            self.engine.call_in(op[1], api.end_outage)
        elif kind == "drop":
            api.begin_watch_drop(op[1])
            self.engine.call_in(op[2], api.end_watch_drop, op[1])

    def run(self, history) -> None:
        at = 0.0
        for gap, op in history:
            at += gap
            self.engine.call_at(at, self.apply, op)
        self.engine.run(until=at + 40.0)

    def observed(self) -> Dict[str, object]:
        decisions: List[Tuple] = [
            (e.time, e.name, tuple(sorted(e.attrs.items())))
            for e in self.tracer.events
            if e.name.startswith("scheduler.")
        ]
        pods = [
            (
                p.name,
                p.node.name if p.node is not None else None,
                p.phase.value,
                p.meta.resource_version,
                [(e.time, e.reason, e.message) for e in p.events],
            )
            for p in self.pods
        ]
        nodes = [
            (n.name, n.meta.resource_version, n.free().cores, n.deleted)
            for n in self.api.nodes()
        ]
        return {
            "decisions": decisions,
            "binds": self.scheduler.binds,
            "pods": pods,
            "nodes": nodes,
            "versions": (self.api.kind_version("Pod"), self.api.kind_version("Node")),
            "writes": self.api.writes,
        }


# One 4-core spot node, three 0.9-core spot pods, then a 1.3-core one:
# the last fits only through fits_in's epsilon, so the index's cores
# cutoff must use the same test (random histories seldom stack one node
# this exactly).
SPOT = SELECTORS.index({PREEMPTIBLE_LABEL: "true"})
DRIFT_AT_EPSILON = [
    (0.0, ("node", MACHINES.index(N1_STANDARD_4), True, True, 1)),
    (0.0, ("pods", REQUESTS.index(ResourceVector(0.9, 256, 256)), SPOT, 3)),
    (1.0, ("pods", REQUESTS.index(ResourceVector(1.3, 256, 256)), SPOT, 1)),
]


@settings(max_examples=150, deadline=None)
@example(history=DRIFT_AT_EPSILON, seed=0)
@given(history=history_st, seed=st.integers(0, 50))
def test_indexed_scheduler_matches_literal(history, seed):
    indexed = World(KubeScheduler, seed)
    literal = World(LiteralScheduler, seed)
    indexed.run(history)
    literal.run(history)
    got, want = indexed.observed(), literal.observed()
    assert got["decisions"] == want["decisions"]
    assert got == want
    assert check_scheduler_indexes(indexed.api) == []


def test_literal_world_binds_something():
    """Guard against a vacuous oracle: the history shape does bind pods,
    breaks ties and records FailedScheduling under both schedulers."""
    history = [
        (0.0, ("node", 0, False, True, 3)),
        (0.0, ("pods", 0, 0, 12)),
        (0.0, ("pods", 4, 0, 4)),
        (1.0, ("finish", 3)),
        (2.5, ("pods", 1, 2, 2)),
    ]
    indexed = World(KubeScheduler, 7)
    literal = World(LiteralScheduler, 7)
    indexed.run(history)
    literal.run(history)
    got = indexed.observed()
    assert got == literal.observed()
    names = {name for _, name, _ in got["decisions"]}
    assert names == {"scheduler.bind", "scheduler.unschedulable"}
