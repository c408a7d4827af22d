"""Property: the maintained fleet indexes equal HTA's literal fleet scans.

HTA's control loop reads three facts about the worker fleet each cycle:
which workers a scale-down drains and in what order, how many workers
are live and idle (Algorithm 1's supply), and the predictive scaler's
pool size. They used to be per-cycle scans; now the pod runtime keeps a
:class:`~repro.wq.runtime.DrainIndex` and the dispatch core keeps the
live/idle counters, both updated only where a worker's flags flip.

This module drives random worker histories through a real cluster, pod
runtime, provisioner and master (one master, or a 4-shard Foreman):
worker starts, connects, task assignment and completion, quarantine and
probation, partitions with heals and liveness expiries, single drains
and provisioner drains, kills, pod deletions (of Running pods, and of
pods that finished under a live worker) and master crashes. After
every step it requires, against :mod:`tests.reference.provisioner_literal`:

* ``drain_index.first(c)`` to be the literal's choice, worker for
  worker, for every ``c`` from 1 to N+1 (N = the runtime's workers);
* ``live_worker_counts()`` to be the literal's ``(live, idle)``;
* ``PredictiveScaler.pool_size`` to be the literal's pool size.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.images import ContainerImage
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from repro.forecast.scaler import PredictiveScaler
from repro.hta.provisioner import WorkerProvisioner
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.health import HealthConfig
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.runtime import WorkerPodRuntime
from repro.wq.sharding import Foreman
from repro.wq.task import FileSpec, Task
from repro.wq.worker import Worker, WorkerState
from tests.reference import provisioner_literal as literal

FOOT = ResourceVector(1, 1024, 512)

op_st = st.one_of(
    st.tuples(st.just("start"), st.integers(1, 3)),
    st.tuples(st.just("submit"), st.integers(1, 6), st.sampled_from([5.0, 20.0, 90.0])),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 3.0, 10.0, 40.0])),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 3.0, 10.0, 40.0])),
    st.tuples(st.just("quarantine"), st.integers(0, 99)),
    st.tuples(st.just("partition"), st.integers(0, 99), st.sampled_from([3.0, 60.0])),
    st.tuples(st.just("drain_one"), st.integers(0, 99)),
    st.tuples(st.just("drain"), st.integers(0, 4)),
    st.tuples(st.just("kill"), st.integers(0, 99)),
    st.tuples(st.just("delete_pod"), st.integers(0, 99)),
    st.tuples(st.just("finish_pod"), st.integers(0, 99)),
    st.tuples(st.just("crash"), st.integers(0, 3)),
)


class History:
    """A cluster, master(s), pod runtime and provisioner under test."""

    def __init__(self, n_shards: int) -> None:
        self.engine = engine = Engine()
        self.cluster = Cluster(
            engine,
            RngRegistry(5),
            ClusterConfig(
                machine_type=N1_STANDARD_4_RESERVED,
                min_nodes=3,
                max_nodes=6,
                node_reservation_mean_s=20.0,
                node_reservation_std_s=0.0,
                registry_jitter_cv=0.0,
            ),
        )
        api = self.cluster.api
        config = DispatchConfig(
            liveness_timeout_s=20.0,
            health=HealthConfig(probation_after_s=15.0),
        )
        link = Link(engine, 500.0)
        shards = [
            Master(engine, link, config=config, estimator=DeclaredResourceEstimator())
            for _ in range(n_shards)
        ]
        self.shards = shards
        if n_shards == 1:
            self.master = shards[0]
            selector = None
        else:
            self.master = Foreman(engine, shards)
            selector = self.master.master_for_pod
        self.runtime = WorkerPodRuntime(
            engine, api, self.cluster.kubelets, shards[0], master_selector=selector
        )
        self.provisioner = WorkerProvisioner(
            engine,
            api,
            self.runtime,
            image=ContainerImage("wq-worker", 50.0),
            worker_request=N1_STANDARD_4_RESERVED.allocatable,
        )
        self.scaler = SimpleNamespace(provisioner=self.provisioner)

    # ------------------------------------------------------------ checks
    def check(self, step) -> None:
        runtime = self.runtime
        n = len(runtime.workers)
        for count in range(1, n + 2):
            got = runtime.drain_index.first(count)
            want = literal.drain_order(runtime, count)
            assert [w.name for w in got] == [w.name for w in want], (step, count)
            assert all(a is b for a, b in zip(got, want)), (step, count)
        assert self.master.live_worker_counts() == literal.live_and_idle(
            self.master
        ), step
        assert PredictiveScaler.pool_size(self.scaler) == literal.pool_size(
            self.provisioner
        ), step

    def advance(self, seconds: float) -> None:
        """Run in steps of at most 1 s, checking after each."""
        end = self.engine.now + seconds
        while self.engine.now < end:
            self.engine.run(until=min(end, self.engine.now + 1.0))
            self.check(("t", self.engine.now))

    # ----------------------------------------------------------- picking
    def _live_workers(self) -> List[Worker]:
        return [
            w
            for w in self.runtime.workers.values()
            if w.state not in (WorkerState.STOPPED, WorkerState.KILLED)
        ]

    @staticmethod
    def _pick(items, i: int):
        return items[i % len(items)] if items else None

    # ---------------------------------------------------------- history
    def apply(self, op) -> None:
        kind = op[0]
        engine, master = self.engine, self.master
        if kind == "start":
            self.provisioner.create_workers(op[1])
        elif kind == "submit":
            _, count, execute_s = op
            for j in range(count):
                master.submit(
                    Task(
                        "c",
                        execute_s=execute_s + j,
                        footprint=FOOT,
                        declared=FOOT,
                        inputs=(FileSpec("in", 5.0),),
                        outputs=(FileSpec("out", 5.0),),
                    )
                )
        elif kind == "advance":
            self.advance(op[1])
        elif kind == "quarantine":
            worker = self._pick(
                [
                    w
                    for w in self._live_workers()
                    if w.master.workers.get(w.name) is w
                ],
                op[1],
            )
            if worker is not None:
                worker.master._quarantine_worker(worker)
        elif kind == "partition":
            worker = self._pick(self._live_workers(), op[1])
            if worker is not None and worker.state is WorkerState.READY:
                worker.partition()
                worker.master.worker_unreachable(worker)
                engine.call_in(op[2], worker.heal)
        elif kind == "drain_one":
            worker = self._pick(self._live_workers(), op[1])
            if worker is not None:
                worker.drain()
        elif kind == "drain":
            want = literal.drain_order(self.runtime, op[1])
            drained = self.provisioner.drain_workers(op[1])
            assert [w.name for w in drained] == [w.name for w in want]
        elif kind == "kill":
            worker = self._pick(self._live_workers(), op[1])
            if worker is not None:
                worker.kill()
        elif kind == "delete_pod":
            pod = self._pick(self.provisioner.my_pods(), op[1])
            if pod is not None:
                self.cluster.api.try_delete("Pod", pod.name)
        elif kind == "finish_pod":
            # A phase change with no API write behind it: a later
            # deletion then finds the pod not Running and leaves its
            # worker alive, so only the runtime's DELETED handler drops it.
            running = [
                p for p in self.provisioner.my_pods() if p.phase is PodPhase.RUNNING
            ]
            pod = self._pick(running, op[1])
            if pod is not None:
                pod.mark_finished(engine.now)
        elif kind == "crash":
            shard = self.shards[op[1] % len(self.shards)]
            shard.crash(restart_delay_s=12.0)


@pytest.mark.parametrize("n_shards", [1, 4])
@settings(max_examples=300, deadline=None)
@given(
    first=st.integers(1, 4),
    ops=st.lists(op_st, min_size=1, max_size=40),
)
def test_fleet_indexes_equal_literal_scans(n_shards, first, ops):
    h = History(n_shards)
    h.check("start")
    h.apply(("start", first))
    h.apply(("submit", 4, 30.0))
    h.advance(30.0)
    for step, op in enumerate(ops):
        h.apply(op)
        h.check((step, op))
    h.advance(60.0)
