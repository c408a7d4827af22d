"""Property: Algorithm 1 over runs of equal resources plans exactly what
the literal per-task Algorithm 1 planned.

Every example feeds one random cluster and queue state to
:class:`~repro.hta.estimator.ResourceEstimator` and to
:class:`~tests.reference.estimator_literal.LiteralEstimator`, and
demands the same :class:`~repro.hta.estimator.ScalePlan`: the same
``delta`` and ``waiting_after``, and float-equal ``next_action_s`` and
``idle_cores_after``. The states mix:

* wait queues of interleaved categories, so runs split and re-merge
  once the tasks between two runs of one category have all placed;
  equal vectors appear both as one shared object and as equal copies;
* 1/3- and 0.9-core requests (float drift in the free capacity),
  memory- and disk-bound requests, zero and sub-epsilon requests
  (which fit a zero capacity, so the ``is_zero`` stop decides), and
  requests too large for any worker;
* equal-core requests that differ in memory, so the packing order of
  equal sort keys matters;
* running tasks finishing inside and past the cycle, pending workers,
  forecast arrivals equal to the tail run and different from it, spot
  workers at several survival rates, ``max_workers``/``min_workers``,
  steps other than one second, and both values of
  ``scale_down_on_empty_queue``.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.hta.estimator import (
    EstimatorConfig,
    ForecastArrival,
    PendingWorker,
    ResourceEstimator,
    SimulatedTask,
)
from tests.reference.estimator_literal import LiteralEstimator

WORKERS = [
    ResourceVector(3, 14 * 1_024, 90 * 1_024),
    ResourceVector(4, 16_384, 40_000),
    ResourceVector(1, 4_096, 4_096),
]
REQUESTS = [
    ResourceVector(1, 2_500, 2_000),
    ResourceVector(1 / 3, 256, 256),  # three of them drift off one core
    ResourceVector(0.9, 256, 256),
    ResourceVector(1, 13 * 1_024, 1_024),  # memory-bound
    ResourceVector(1, 1_024, 60_000),  # disk-bound
    ResourceVector(1, 6_000, 500),  # equal cores, other memory
    ResourceVector(2, 4_096, 1_000),
    ResourceVector(64, 1_024, 1_024),  # fits no worker
    ResourceVector.zero(),  # fits even a zero capacity
    ResourceVector(1e-10, 0, 0),  # ... and so does this one
    # Leaves a 1-core worker a sliver just above is_zero's epsilon, which
    # the sub-epsilon request above wears down to "zero" mid-run.
    ResourceVector(1 - 1.5e-9, 4_096, 4_096),
]
TIMES = [0.0, 0.5, 1.0, 1.7, 3.0, 10.0, 29.9, 50.0, 200.0, 1_000.0]

request_st = st.integers(0, len(REQUESTS) - 1)
# (request, tasks, shared object?) — adjacent groups of one request merge.
queue_st = st.lists(
    st.tuples(request_st, st.integers(1, 6), st.booleans()), max_size=10
)
running_st = st.lists(
    st.tuples(request_st, st.sampled_from(TIMES)), max_size=12
)
pending_st = st.lists(
    st.tuples(
        st.sampled_from(WORKERS + [ResourceVector(1, 1_024, 1_024)]),
        st.sampled_from(TIMES),
    ),
    max_size=4,
)
# (request or None for "equal to the tail run", eta)
arrival_st = st.lists(
    st.tuples(st.one_of(st.none(), request_st), st.sampled_from(TIMES)),
    max_size=8,
)


def _resources(i: int, shared: bool) -> ResourceVector:
    r = REQUESTS[i]
    return r if shared else ResourceVector(r.cores, r.memory_mb, r.disk_mb)


def _waiting(queue):
    tasks = []
    for i, n, shared in queue:
        tasks.extend(SimulatedTask(_resources(i, shared), 60.0) for _ in range(n))
    return tasks


def _arrivals(arrivals, waiting):
    out = []
    for i, eta in arrivals:
        if i is None:
            res = waiting[-1].resources if waiting else REQUESTS[0]
        else:
            res = _resources(i, False)
        out.append(ForecastArrival(SimulatedTask(res, 60.0), eta))
    return out


@given(
    worker=st.sampled_from(WORKERS),
    init_time=st.sampled_from([0.5, 1.0, 7.3, 30.0, 160.0]),
    step_s=st.sampled_from([1.0, 0.7, 2.5, 10.0]),
    scale_down=st.booleans(),
    queue=queue_st,
    running_spec=running_st,
    pending_spec=pending_st,
    arrival_spec=arrival_st,
    active=st.integers(0, 8),
    idle_pick=st.integers(0, 8),
    spot_pick=st.integers(0, 8),
    spot_survival=st.sampled_from([1.0, 0.9, 0.5, 1 / 3, 0.0]),
    max_workers=st.one_of(st.none(), st.integers(0, 20)),
    min_workers=st.integers(0, 4),
)
@settings(max_examples=400, deadline=None)
# A zero request behind a full cluster: only the is_zero stop holds it.
@example(
    worker=WORKERS[0], init_time=1.0, step_s=1.0, scale_down=True,
    queue=[(8, 2, True)], running_spec=[], pending_spec=[], arrival_spec=[],
    active=0, idle_pick=0, spot_pick=0, spot_survival=1.0,
    max_workers=None, min_workers=0,
)
# The free capacity turns is_zero in the middle of a run.
@example(
    worker=WORKERS[2], init_time=1.0, step_s=1.0, scale_down=True,
    queue=[(9, 20, True)], running_spec=[(10, 1_000.0)], pending_spec=[],
    arrival_spec=[], active=1, idle_pick=0, spot_pick=0, spot_survival=1.0,
    max_workers=None, min_workers=0,
)
# Several tasks of one run fit: a run places more than its head.
@example(
    worker=WORKERS[0], init_time=1.0, step_s=1.0, scale_down=True,
    queue=[(0, 5, True)], running_spec=[], pending_spec=[], arrival_spec=[],
    active=1, idle_pick=0, spot_pick=0, spot_survival=1.0,
    max_workers=None, min_workers=0,
)
# Equal cores, different memory: packing order follows queue order.
@example(
    worker=WORKERS[0], init_time=1.0, step_s=1.0, scale_down=True,
    queue=[(3, 1, True), (5, 2, True), (0, 1, True)], running_spec=[],
    pending_spec=[], arrival_spec=[], active=0, idle_pick=0, spot_pick=0,
    spot_survival=1.0, max_workers=None, min_workers=0,
)
def test_run_length_estimator_matches_the_literal_one(
    worker, init_time, step_s, scale_down, queue, running_spec, pending_spec,
    arrival_spec, active, idle_pick, spot_pick, spot_survival, max_workers,
    min_workers,
):
    config = EstimatorConfig(step_s=step_s, scale_down_on_empty_queue=scale_down)
    waiting = _waiting(queue)
    kwargs = dict(
        rsrc_init_time=init_time,
        running=[SimulatedTask(REQUESTS[i], t) for i, t in running_spec],
        waiting=waiting,
        active_workers=active,
        idle_workers=idle_pick % (active + 1),
        pending=[PendingWorker(cap, eta) for cap, eta in pending_spec],
        max_workers=max_workers,
        min_workers=min_workers,
        future_arrivals=_arrivals(arrival_spec, waiting),
        spot_workers=spot_pick % (active + 1),
        spot_survival=spot_survival,
    )
    fast = ResourceEstimator(worker, config).estimate(**kwargs)
    literal = LiteralEstimator(worker, config).estimate(**kwargs)
    assert (
        fast.delta,
        fast.next_action_s,
        fast.waiting_after,
        fast.idle_cores_after,
    ) == (
        literal.delta,
        literal.next_action_s,
        literal.waiting_after,
        literal.idle_cores_after,
    )
