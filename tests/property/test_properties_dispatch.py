"""Property: the bucketed dispatch pass decides exactly what the literal
list-walking pass decided.

Every example builds the same random master state twice — workers of
mixed capacities (some partly full, some holding a cacheable input,
some quarantined, detached or draining) and a queue shaped by back
submits, front re-homes, evacuations, worker losses, exhaustion retries
and mid-queue removals — then runs :meth:`DispatchCore._dispatch` on one
copy and :class:`~tests.reference.dispatch_literal.LiteralDispatch` on
the other. Both must seat the same tasks on the same workers with the
same allocations, in the same order, and leave the same queue behind;
a speculative placement with ``exclude`` must match too.

The queue's iteration order is checked against a plain list mirrored
through every mutation, and its buckets against the tasks' current
placement signatures — so a code path that changed a signature field
of a *queued* task would fail here.
"""

from __future__ import annotations

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.wq.dispatch import DispatchConfig, placement_signature
from repro.wq.faults import RetryPolicy, TaskFault
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.task import FileSpec, Task, TaskResult
from repro.wq.worker import Worker
from tests.reference.dispatch_literal import LiteralDispatch

CAPACITIES = [
    ResourceVector(4, 16_384, 40_000),
    ResourceVector(8, 32_768, 80_000),
    ResourceVector(2, 8_192, 20_000),
]
FOOTPRINTS = [
    ResourceVector(1, 1_024, 500),
    ResourceVector(2, 4_096, 1_000),
    ResourceVector(1, 6_000, 500),
    ResourceVector(3, 2_048, 2_000),
]
ONE = FOOTPRINTS[0]
CATEGORIES = ["align", "reduce", "refine"]
SHARED = FileSpec("ref.db", 50.0, cacheable=True)

workers_st = st.lists(
    st.tuples(
        st.integers(0, len(CAPACITIES) - 1),  # capacity
        st.integers(0, 4),  # 1-core fillers already running
        st.booleans(),  # holds the cacheable input
        st.sampled_from(["ready", "ready", "quarantined", "detached", "draining"]),
    ),
    min_size=2,
    max_size=6,
)
task_st = st.tuples(
    st.sampled_from(CATEGORIES),
    st.integers(0, len(FOOTPRINTS) - 1),
    st.sampled_from([True, True, False]),  # declared
    st.sampled_from([None, None, 1.5, 3.0]),  # escalated min_allocation
    st.sampled_from([0, 0, 0, 1, 2]),  # priority
    st.booleans(),  # cacheable input
)
op_st = st.one_of(
    st.tuples(st.just("back"), task_st),
    st.tuples(st.just("front"), task_st),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("evacuate"), st.integers(0, 10**6)),
    st.tuples(st.just("fail"), st.integers(0, 10**6)),
    st.tuples(st.just("lose"), st.integers(0, 10**6)),
)


class MirroredMaster(Master):
    """A Master whose queue mutations are mirrored into a plain list —
    the list semantics the bucketed queue must iterate identically to."""

    def __init__(self, *args, **kwargs) -> None:
        self.mirror: List[Task] = []
        super().__init__(*args, **kwargs)

    def _enqueue_back(self, task: Task) -> None:
        self.mirror.append(task)
        super()._enqueue_back(task)

    def _enqueue_front(self, task: Task) -> None:
        self.mirror.insert(0, task)
        super()._enqueue_front(task)

    def _dequeue(self, task: Task) -> None:
        self.mirror = [t for t in self.mirror if t is not task]
        super()._dequeue(task)

    def _reset_queue(self, tasks: List[Task]) -> None:
        self.mirror = list(tasks)
        super()._reset_queue(tasks)


def _make_task(spec) -> Task:
    category, foot_i, declared, escalate, priority, cacheable = spec
    footprint = FOOTPRINTS[foot_i]
    task = Task(
        category,
        execute_s=60.0,
        footprint=footprint,
        declared=footprint if declared else None,
        inputs=(SHARED,) if cacheable else (),
        priority=priority,
    )
    if escalate is not None:
        task.min_allocation = footprint.scale(escalate)
    return task


def build(workers_spec, ops):
    """One master state from the drawn description. Returns the master,
    its workers, and every task in creation order (the cross-copy
    identity: task ids differ between the two builds)."""
    engine = Engine()
    link = Link(engine, 100.0)
    master = MirroredMaster(
        engine,
        link,
        config=DispatchConfig(retry_policy=RetryPolicy(base_backoff_s=0.0)),
    )
    # One category already has a monitor estimate; the others probe
    # (whole worker) unless declared.
    master.monitor.record(
        TaskResult(
            task_id=0,
            category="refine",
            worker_name="w-seed",
            submit_time=0.0,
            dispatch_time=0.0,
            start_time=0.0,
            finish_time=1.0,
            execute_seconds=1.0,
            measured_resources=ResourceVector(1, 2_048, 500),
            attempts=0,
        )
    )
    workers = [
        Worker(engine, master, f"w{i}", CAPACITIES[cap_i], connect_latency=0.0)
        for i, (cap_i, _, _, _) in enumerate(workers_spec)
    ]
    engine.run()
    tasks: List[Task] = []
    fillers: List[tuple] = []
    for worker, (_, n_fill, cached, _) in zip(workers, workers_spec):
        if cached:
            worker.cache.add(SHARED.name, SHARED.size_mb, 0.0)
        for _ in range(n_fill):
            if not ONE.fits_in(worker.available()):
                break
            task = Task("filler", execute_s=600.0, footprint=ONE, declared=ONE)
            tasks.append(task)
            master.submit(task)
            master._dequeue(task)
            master.running[task.id] = task
            worker.assign(task, ONE)
            fillers.append((worker, task))

    def pick(seq, k):
        return seq[k % len(seq)] if seq else None

    for kind, arg in ops:
        if kind in ("back", "front"):
            task = _make_task(arg)
            tasks.append(task)
            if kind == "back":
                master.submit(task)
            else:
                task.submit_time = engine.now
                master.failover_in(task, placement="ready")
            continue
        if kind == "remove":
            task = pick(master.mirror, arg)
            if task is not None:
                master._dequeue(task)
            continue
        live = [(w, t) for w, t in fillers if t.id in w.runs]
        chosen = pick(live, arg)
        if chosen is None:
            continue
        worker, task = chosen
        if kind == "evacuate":
            master.evacuate_worker(worker, [task])
        elif kind == "fail":
            # The worker-side order: drop the run, then report the
            # exhaustion kill (escalates min_allocation, requeues front).
            worker.cancel_run(task)
            master.task_failed(
                worker,
                task,
                TaskFault("exhaustion", 0.5, escalate_to=ONE.scale(2.0)),
            )
        else:  # lose: the whole worker dies, its runs retry at the front
            worker.kill()
    for worker, (_, _, _, status) in zip(workers, workers_spec):
        if worker.state.value != "ready":
            continue
        if status == "quarantined":
            worker.quarantined = True
            master.worker_status_changed(worker)
        elif status == "detached":
            worker.master_lost()
        elif status == "draining":
            worker.drain()
    return master, workers, tasks


def check_queue(master: Master) -> None:
    """Iteration matches list semantics; buckets match live signatures."""
    assert list(master.queue) == master.mirror
    assert len(master.queue) == len(master.mirror)
    assert all(t in master.queue for t in master.mirror)
    bucketed = 0
    for (priority, sig), bucket in master.queue._buckets.items():
        positions = [pos for pos, _ in bucket]
        assert positions == sorted(positions)
        for _, task in bucket:
            assert (task.priority, placement_signature(task)) == (priority, sig)
        bucketed += len(bucket)
    assert bucketed == len(master.mirror)


def placements(master: Master, before: set, index) -> List[tuple]:
    return [
        (index[tid], task.allocation, _host(master, tid))
        for tid, task in master.running.items()
        if tid not in before
    ]


def _host(master: Master, task_id: int) -> Optional[str]:
    for worker in master.workers.values():
        if task_id in worker.runs:
            return worker.name
    return None


@given(
    workers_spec=workers_st,
    ops=st.lists(op_st, max_size=40),
    spec_task=task_st,
    exclude_i=st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_bucketed_dispatch_matches_the_literal_pass(
    workers_spec, ops, spec_task, exclude_i
):
    fast, fast_workers, fast_tasks = build(workers_spec, ops)
    slow, slow_workers, slow_tasks = build(workers_spec, ops)
    check_queue(fast)
    fast_index = {t.id: i for i, t in enumerate(fast_tasks)}
    slow_index = {t.id: i for i, t in enumerate(slow_tasks)}
    fast_before, slow_before = set(fast.running), set(slow.running)

    fast._dispatch()
    literal = LiteralDispatch(slow)
    assert literal.queue == slow.mirror
    literal._dispatch()

    assert placements(fast, fast_before, fast_index) == placements(
        slow, slow_before, slow_index
    )
    fast.mirror = [t for t in fast.mirror if t.id not in fast.running]
    check_queue(fast)
    assert [fast_index[t.id] for t in fast.queue] == [
        slow_index[t.id] for t in literal.queue
    ]

    # Speculation's placement path: same pick with a worker excluded.
    fast_clone, slow_clone = _make_task(spec_task), _make_task(spec_task)
    fast_clone.speculation_of = slow_clone.speculation_of = -1
    exclude = exclude_i % len(fast_workers)
    assert fast._try_place(
        fast_clone, exclude=fast_workers[exclude]
    ) == literal._try_place(slow_clone, exclude=slow_workers[exclude])
    assert fast_clone.allocation == slow_clone.allocation
    assert _host(fast, fast_clone.id) == _host(slow, slow_clone.id)
