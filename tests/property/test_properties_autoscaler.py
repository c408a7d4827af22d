"""Property: the change-fed autoscaling sweeps decide exactly what the
literal scans decided.

The cluster autoscaler's scale-up returns early when no pool has room
and packs only nodes that could seat the smallest pending request; its
scale-down reads the API server's node change feed instead of every
node. HTA's pending-pod count reads the API server's pending view, and
``cores_waiting`` reads the queue's running total while every queued
footprint is dyadic. This module drives random histories through the
real objects and compares each with its verbatim predecessor in
:mod:`tests.reference.autoscaler_literal`.

* The cluster histories run a scheduler, kubelets, a cloud controller
  with a spot pool and a chaos injector. Reservations land in
  same-instant bursts; pods of several sizes and selectors are bound,
  start, finish (with and without a status write), are evicted or have
  their deletion requested while pending, and wait with FailedScheduling
  events; nodes get preemption notices, are killed by chaos, cordoned
  and flipped not-ready; the API server's notification plane goes down.
  The controller also syncs on demand, several times with no write in
  between and inside outages (versions advance, notifications drop),
  and its spot pool may stock out and its machines fail to boot, so the
  scans it answers from its state-version memos meet every way their
  inputs move. Just before every scale-up and scale-down pass the
  literal pass runs on the same state; both must reserve the same pools
  in the same order, attempt the same removals in the same order with
  the same results, and leave ``_idle_since`` equal on every node the
  literal scan visits. After every step the pending views and HTA's
  pending count must equal the literal filters.
* The queue histories push, remove, dispatch and clear tasks whose
  footprints mix int, 0.5, 0.9 and 1/3 cores, crossing between
  all-dyadic and not in both directions and emptying the queue;
  ``cores_waiting`` must be ``repr``-equal to the literal fold, and the
  queue's maintained counts equal their recount.
"""

from __future__ import annotations

from typing import List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.api import KubeApiServer
from repro.cluster.chaos import ChaosInjector
from repro.cluster.cloud import (
    CloudController,
    CloudControllerConfig,
    PreemptiblePoolConfig,
)
from repro.cluster.images import ContainerImage, ImageRegistry
from repro.cluster.kubelet import KubeletManager
from repro.cluster.node import N1_STANDARD_4, PREEMPTIBLE_LABEL
from repro.cluster.pod import Pod, PodSpec
from repro.cluster.resources import ResourceVector
from repro.cluster.scheduler import KubeScheduler
from repro.hta.provisioner import WorkerProvisioner
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import Task
from tests.reference.autoscaler_literal import (
    LiteralAutoscaler,
    cores_waiting,
    pending_selected,
    provisioner_pending_pods,
    queue_counts,
)

# -------------------------------------------------------------- cluster
IMAGE = ContainerImage("img", 10)
REQUESTS = [
    ResourceVector(0, 256, 256),  # zero cores: every node stays a candidate
    ResourceVector(1 / 3, 256, 256),
    ResourceVector(1, 1_024, 1_024),
    ResourceVector(2.5, 2_048, 1_024),
    ResourceVector(4, 1_024, 1_024),  # whole node
    ResourceVector(1, 14 * 1_024, 1_024),  # memory-bound
    ResourceVector(64, 1_024, 1_024),  # fits no machine
]
SELECTORS = [{}, {}, {PREEMPTIBLE_LABEL: "true"}, {PREEMPTIBLE_LABEL: "false"}]
#: (app label, name prefix): HTA's own pods, a foreign prefix under the
#: same label, and another app.
OWNERS = [("w", "hta-w"), ("w", "other"), ("x", "hta-w")]
VIEWS = [{"app": "w"}, {"app": "x"}]

pick = st.integers(0, 10**6)
pods_op = st.tuples(
    st.just("pods"),
    st.integers(0, len(REQUESTS) - 1),
    st.integers(0, len(SELECTORS) - 1),
    st.integers(0, len(OWNERS) - 1),
    st.integers(1, 6),  # same-instant batch
)
burst_op = st.tuples(st.just("burst"), st.booleans(), st.integers(1, 3))
cluster_op_st = st.one_of(
    pods_op,
    pods_op,
    pods_op,
    burst_op,
    st.tuples(st.just("finish"), pick, st.booleans()),
    st.tuples(st.just("finish"), pick, st.booleans()),
    st.tuples(st.just("finish_silently"), pick),
    st.tuples(st.just("evict"), pick),
    st.tuples(st.just("request_deletion"), pick),
    st.tuples(st.just("ready"), pick),
    st.tuples(st.just("cordon"), pick),
    st.tuples(st.just("kill"), pick),
    st.tuples(st.just("preempt"), pick),
    st.tuples(st.just("outage"), st.sampled_from([0.5, 4.0, 25.0])),
    st.tuples(st.just("sync"), st.integers(1, 3)),
    st.tuples(
        st.just("outage_sync"), st.integers(0, len(REQUESTS) - 1), st.integers(1, 3)
    ),
)
#: (spot stockout probability, boot failure probability).
faults_st = st.sampled_from([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.0, 0.5)])
gap_st = st.sampled_from([0.0, 0.0, 1.0, 5.0, 10.0, 30.0, 90.0])
# Every history opens with a pod batch and a reservation burst, so most
# examples scale up, idle and scale down around the churn that follows.
history_st = st.builds(
    lambda pods, burst, rest: [(0.0, pods), (0.0, burst)] + rest,
    pods_op,
    burst_op,
    st.lists(st.tuples(gap_st, cluster_op_st), max_size=40),
)


class AutoscalerWorld:
    """A control plane whose cloud controller checks every pass against
    the literal one run just before it on the same state."""

    def __init__(self, max_concurrent, faults) -> None:
        stockout_prob, boot_failure_prob = faults
        self.engine = engine = Engine()
        rng = RngRegistry(5)
        self.api = api = KubeApiServer(engine)
        KubeletManager(engine, api, ImageRegistry(rng))
        KubeScheduler(engine, api)
        self.cloud = cloud = CloudController(
            engine,
            api,
            rng,
            CloudControllerConfig(
                machine_type=N1_STANDARD_4,
                min_nodes=2,
                max_nodes=5,
                scan_period_s=10.0,
                # A zero spread lands every reservation of a scan at the
                # same instant.
                reservation_mean_s=20.0,
                reservation_std_s=0.0,
                reservation_floor_s=5.0,
                idle_timeout_s=30.0,
                max_concurrent_reservations=max_concurrent,
                boot_failure_prob=boot_failure_prob,
                preemptible=PreemptiblePoolConfig(
                    max_nodes=3, grace_period_s=25.0, stockout_prob=stockout_prob
                ),
            ),
        )
        self.chaos = ChaosInjector(engine, api, rng, cloud=cloud)
        self.provisioner = WorkerProvisioner(
            engine,
            api,
            None,  # type: ignore[arg-type]  # pending_pods needs no runtime
            image=IMAGE,
            worker_request=REQUESTS[2],
            app_label="w",
            name_prefix="hta-w",
        )
        self.literal = LiteralAutoscaler(cloud)
        self.seq = 0
        self.passes = 0
        self._install_checks()

    # ---------------------------------------------------------- the checks
    def _install_checks(self) -> None:
        cloud, literal = self.cloud, self.literal
        scale_up, scale_down = cloud._scale_up, cloud._scale_down
        reserve, remove = cloud._reserve_node, cloud._remove_node
        reserved: List[bool] = []
        removed: List[tuple] = []

        def recording_reserve(*, preemptible: bool = False) -> None:
            reserved.append(preemptible)
            reserve(preemptible=preemptible)

        def recording_remove(node) -> bool:
            result = remove(node)
            removed.append((node.name, result))
            return result

        def checked_scale_up() -> None:
            literal.reserved = []
            literal._scale_up()
            reserved.clear()
            scale_up()
            assert reserved == literal.reserved, (self.engine.now, reserved, literal.reserved)

        def checked_scale_down() -> None:
            literal.removed = []
            literal._scale_down()
            removed.clear()
            scale_down()
            now = self.engine.now
            assert removed == literal.removed, (now, removed, literal.removed)
            # Timers run only on nodes the literal scan visits.
            assert set(cloud._idle_since) <= set(literal.visited), now
            for name in literal.visited:
                assert cloud._idle_since.get(name) == literal._idle_since.get(name), (
                    now, name, cloud._idle_since.get(name), literal._idle_since.get(name),
                )
            self.passes += 1

        cloud._reserve_node = recording_reserve
        cloud._remove_node = recording_remove
        cloud._scale_up = checked_scale_up
        cloud._scale_down = checked_scale_down

    def check_views(self, step) -> None:
        got = self.provisioner.pending_pods()
        want = provisioner_pending_pods(self.provisioner)
        assert [p.name for p in got] == [p.name for p in want], step
        assert self.provisioner.pending_count() == len(want), step
        for selector in VIEWS:
            got = self.api.list_pending(selector)
            want = pending_selected(self.api, selector)
            assert [p.name for p in got] == [p.name for p in want], (step, selector)

    # --------------------------------------------------------------- ops
    def create_pods(self, req_i, sel_i, owner_i, count) -> None:
        app, prefix = OWNERS[owner_i]
        for _ in range(count):
            self.seq += 1
            self.api.create(
                Pod(
                    f"{prefix}-{self.seq}",
                    PodSpec(
                        IMAGE,
                        REQUESTS[req_i],
                        labels={"app": app},
                        node_selector=dict(SELECTORS[sel_i]),
                    ),
                    creation_time=self.engine.now,
                )
            )

    def _pick(self, items, i):
        return items[i % len(items)] if items else None

    def apply(self, op) -> None:
        kind = op[0]
        api, engine = self.api, self.engine
        now = engine.now
        if kind == "pods":
            _, req_i, sel_i, owner_i, count = op
            self.create_pods(req_i, sel_i, owner_i, count)
        elif kind == "sync":
            for _ in range(op[1]):
                self.cloud.sync()
        elif kind == "outage_sync":
            _, req_i, count = op
            api.begin_outage()
            self.create_pods(req_i, 0, 0, 1)
            for _ in range(count):
                self.cloud.sync()
            engine.call_in(5.0, api.end_outage)
        elif kind == "burst":
            _, spot, count = op
            for _ in range(count):
                self.cloud._reserve_node(preemptible=spot)
        elif kind in ("finish", "finish_silently"):
            bound = [p for p in api.pods() if p.node is not None and not p.phase.terminal]
            pod = self._pick(bound, op[1])
            if pod is not None:
                pod.mark_finished(now, succeeded=kind == "finish" and op[2])
                if kind == "finish":
                    api.mark_modified(pod)
        elif kind == "evict":
            pod = self._pick(api.pods(), op[1])
            if pod is not None:
                api.try_delete("Pod", pod.name)
        elif kind == "request_deletion":
            pod = self._pick(api.pending_pods(), op[1])
            if pod is not None:
                pod.deletion_requested = True
        elif kind == "ready":
            node = self._pick(api.nodes(), op[1])
            if node is not None:
                node.ready = not node.ready
        elif kind == "cordon":
            node = self._pick(api.nodes(), op[1])
            if node is not None:
                node.unschedulable = True
        elif kind == "kill":
            node = self._pick(api.nodes(), op[1])
            if node is not None:
                self.chaos.kill_node(node)
        elif kind == "preempt":
            spot = [n for n in api.nodes() if n.preemptible]
            node = self._pick(spot, op[1])
            if node is not None:
                self.cloud.begin_preemption(node)
        elif kind == "outage":
            api.begin_outage()
            engine.call_in(op[1], api.end_outage)


@settings(max_examples=80, deadline=None)
@given(
    max_concurrent=st.sampled_from([None, None, 2]),
    faults=faults_st,
    history=history_st,
)
# Both on-demand nodes full, a 4-core and a 1-core pod unschedulable, then
# a bound pod finishes without a status write, so the scheduler does not
# rerun: the next scale-up packs the 1-core pod into the freed core, a
# node that could not seat the larger request.
@example(
    max_concurrent=None,
    faults=(0.0, 0.0),
    history=[
        (0.0, ("pods", 2, 0, 0, 6)),
        (0.0, ("burst", True, 1)),
        (0.0, ("pods", 2, 0, 0, 2)),
        (5.0, ("pods", 4, 0, 0, 1)),
        (0.0, ("pods", 2, 0, 0, 1)),
        (1.0, ("finish_silently", 0)),
    ],
)
# An idle spot node gets a preemption notice well inside its grace window:
# the notice's status write must take its timer away.
@example(
    max_concurrent=None,
    faults=(0.0, 0.0),
    history=[
        (0.0, ("pods", 2, 0, 0, 1)),
        (0.0, ("burst", True, 1)),
        (35.0, ("preempt", 0)),
    ],
)
# An unpackable pod holds the FailedScheduling guard, then is evicted: the
# unchanged bootstrap nodes must get their timers back.
@example(
    max_concurrent=None,
    faults=(0.0, 0.0),
    history=[
        (0.0, ("pods", 6, 0, 0, 1)),
        (0.0, ("burst", True, 1)),
        (15.0, ("evict", 0)),
    ],
)
# Repeated syncs with no write between them: after the t=0 pass reserved
# for the whole-node pods, every later scan of the wait is answered from
# the memos until a machine lands.
@example(
    max_concurrent=None,
    faults=(0.0, 0.0),
    history=[
        (0.0, ("pods", 4, 0, 0, 4)),
        (0.0, ("burst", False, 1)),
        (11.0, ("sync", 3)),
        (0.0, ("sync", 2)),
        (10.0, ("sync", 1)),
    ],
)
# Syncs inside an API outage: the pods created in it advance the Pod
# version though no watcher hears of them.
@example(
    max_concurrent=None,
    faults=(0.0, 0.0),
    history=[
        (0.0, ("pods", 4, 0, 0, 3)),
        (0.0, ("burst", False, 1)),
        (12.0, ("outage_sync", 4, 3)),
        (1.0, ("sync", 2)),
        (2.0, ("outage_sync", 2, 1)),
    ],
)
# A spot pool that always stocks out: every scan asks again and draws,
# though nothing else changed.
@example(
    max_concurrent=None,
    faults=(1.0, 0.0),
    history=[
        (0.0, ("pods", 4, 2, 0, 2)),
        (0.0, ("burst", False, 1)),
        (11.0, ("sync", 3)),
    ],
)
# wide-cluster's shape: the pool one machine short of max_nodes, with the
# pending pods needing no more than the reservations in flight. When the
# machines fail to boot, only the in-flight count tells the next scan.
@example(
    max_concurrent=None,
    faults=(0.0, 1.0),
    history=[
        (0.0, ("pods", 4, 0, 0, 2)),
        (1.0, ("pods", 4, 0, 0, 2)),
        (10.0, ("sync", 2)),
    ],
)
# The only pending pod fits no machine: no node is provisioned for it.
@example(
    max_concurrent=None,
    faults=(0.0, 0.0),
    history=[(0.0, ("pods", 6, 0, 0, 1))],
)
# The pod holding the FailedScheduling guard has its deletion requested
# without a write, and no machine lands after it: only the pod feed's
# version tells the memoized guard.
@example(
    max_concurrent=None,
    faults=(0.0, 0.0),
    history=[
        (0.0, ("pods", 6, 0, 0, 1)),
        (0.0, ("pods", 0, 0, 0, 1)),
        (10.0, ("request_deletion", 0)),
    ],
)
def test_change_fed_autoscaler_equals_literal_scans(max_concurrent, faults, history):
    world = AutoscalerWorld(max_concurrent, faults)
    engine = world.engine
    for step, (gap, op) in enumerate(history):
        engine.run(until=engine.now + gap)
        world.apply(op)
        world.check_views((step, op))
    # Let the pools settle: pending pods land, idle nodes time out.
    for _ in range(30):
        engine.run(until=engine.now + 10.0)
        world.check_views("settle")
    assert world.passes > 0


# ---------------------------------------------------------------- queue
#: Footprint cores: ints, a dyadic fraction, and two non-dyadic ones.
CORES = [1, 2, 0, 0.5, 0.9, 1 / 3, 3.0]

queue_op_st = st.one_of(
    st.tuples(st.just("push_back"), st.integers(0, len(CORES) - 1), st.integers(1, 4)),
    st.tuples(st.just("push_front"), st.integers(0, len(CORES) - 1), st.integers(1, 3)),
    st.tuples(st.just("remove"), pick),
    st.tuples(st.just("dispatch"), st.integers(0, 6)),
    st.tuples(st.just("clear")),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(queue_op_st, min_size=1, max_size=50))
def test_cores_waiting_equals_literal_fold(ops):
    engine = Engine()
    core = Master(engine, Link(engine, 100.0))
    queue = core.queue
    tasks: List[Task] = []

    def check(step) -> None:
        got, want = core.cores_waiting(), cores_waiting(core)
        assert repr(got) == repr(want), (step, got, want)
        assert (queue.cores.n_float, queue.cores.n_odd) == queue_counts(queue), step

    check("empty")
    for step, op in enumerate(ops):
        kind = op[0]
        if kind in ("push_back", "push_front"):
            _, cores_i, count = op
            for _ in range(count):
                task = Task(
                    "c", execute_s=1.0, footprint=ResourceVector(CORES[cores_i], 64, 64)
                )
                tasks.append(task)
                getattr(queue, kind)(task)
        elif kind == "remove":
            if tasks:
                queue.remove(tasks[op[1] % len(tasks)])  # queued or not
        elif kind == "dispatch":
            budget = [op[1]]

            def place(_task) -> bool:
                budget[0] -= 1
                return budget[0] >= 0

            queue.dispatch(place)
        else:
            queue.clear()
        check((step, op))
