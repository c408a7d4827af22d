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

import math

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
# A request too large for any worker takes a whole worker of its own, and
# a zero request rides in it: the plan is one worker, not two.
@example(
    worker=WORKERS[0], init_time=1.0, step_s=1.0, scale_down=True,
    queue=[(7, 1, True), (8, 1, True)], running_spec=[], pending_spec=[],
    arrival_spec=[], active=0, idle_pick=0, spot_pick=0, spot_survival=1.0,
    max_workers=None, min_workers=0,
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
    _assert_same_plan(worker, config, kwargs)


def _assert_same_plan(worker, config, kwargs):
    fast = ResourceEstimator(worker, config).estimate(**kwargs)
    literal = LiteralEstimator(worker, config).estimate(**kwargs)
    # repr compares the floats bit for bit, -0.0 and 0.0 apart.
    assert repr(fast) == repr(literal)


# ------------------------------------------------- the event-step simulation
#: Vectors that let a placement grow the free capacity, where dispatch
#: is no fixed point between events: a negative memory request, a request
#: that fits only once that one has landed, a worker whose disk is a hair
#: below zero (its first zero-disk placement clamps it up to 0.0) and a
#: request that fits only after that clamp.
GROWING_REQUESTS = [
    ResourceVector(0, -10, 0),
    ResourceVector(1, 4_097, 0),
    ResourceVector(1, 0, 9.5e-10),
]
GROWING_WORKER = ResourceVector(4, 4_096, -1e-10)
#: Its free cores stay -0.0 through a fold of zero-core tasks.
SIGNED_ZERO_WORKER = ResourceVector(-0.0, 8_192, 8_192)
ALL_REQUESTS = REQUESTS + GROWING_REQUESTS
STEPS = [1.0, 0.7, 2.5, 10.0]


def _case(worker, step_s, init_time, queue=(), running=(), pending=(),
          arrivals=(), active=0, idle=0, scale_down=True, min_cycle_s=5.0):
    """One estimator call: the requests are indices into ALL_REQUESTS."""
    return dict(
        worker=worker,
        config=EstimatorConfig(
            step_s=step_s, scale_down_on_empty_queue=scale_down, min_cycle_s=min_cycle_s
        ),
        kwargs=dict(
            rsrc_init_time=init_time,
            running=[SimulatedTask(ALL_REQUESTS[i], t) for i, t in running],
            waiting=[SimulatedTask(ALL_REQUESTS[i], 60.0) for i in queue],
            active_workers=active,
            idle_workers=idle,
            pending=[PendingWorker(cap, eta) for cap, eta in pending],
            future_arrivals=[
                ForecastArrival(SimulatedTask(ALL_REQUESTS[i], 60.0), eta)
                for i, eta in arrivals
            ],
        ),
    )


@st.composite
def cycles(draw):
    """Long cycles, up to 200 running tasks finishing on, just before and
    just past step edges, demand above and below capacity, sparse events."""
    step_s = draw(st.sampled_from(STEPS))
    steps = draw(st.integers(1, 400))
    end = steps * step_s
    init_time = draw(st.sampled_from(
        [end, math.nextafter(end, math.inf), (steps - 0.5) * step_s]
    ))
    edge = st.integers(0, steps + 20).map(lambda k: k * step_s)
    remaining = st.one_of(
        edge,  # exactly on a bucket edge
        edge.map(lambda x: math.nextafter(x, math.inf)),  # just past one
        edge.map(lambda x: math.nextafter(x, 0.0)),  # just before one
        st.sampled_from(TIMES + [-0.0]),
    )
    request = st.integers(0, len(ALL_REQUESTS) - 1)
    eta = st.floats(0.0, init_time * 1.1)
    active = draw(st.integers(0, 80))
    groups = draw(st.lists(st.tuples(request, st.integers(1, 8)), max_size=8))
    return _case(
        worker=draw(st.sampled_from(WORKERS + [GROWING_WORKER, SIGNED_ZERO_WORKER])),
        step_s=step_s,
        init_time=init_time,
        queue=[i for i, n in groups for _ in range(n)],
        running=draw(st.lists(st.tuples(request, remaining), max_size=200)),
        pending=draw(st.lists(st.tuples(st.sampled_from(WORKERS), eta), max_size=4)),
        arrivals=draw(st.lists(st.tuples(request, eta), max_size=8)),
        active=active,
        idle=draw(st.integers(0, active)),
        scale_down=draw(st.booleans()),
        # Below zero, the floor no longer hides the sign of a 0.0 runtime.
        min_cycle_s=draw(st.sampled_from([5.0, -1.0])),
    )


W = WORKERS[0]  # 3 cores, 14 GB, 90 GB


@given(case=cycles())
@settings(max_examples=300, deadline=None)
# No event at all: only the step-1 dispatch places the queue.
@example(case=_case(W, 1.0, 160.0, queue=[0, 0], active=1))
# The only later events are a pending worker, a forecast arrival and a
# completion, each of which must run a dispatch at its own step.
@example(case=_case(W, 1.0, 160.0, queue=[0] * 5, pending=[(W, 40.0)]))
@example(case=_case(W, 1.0, 160.0, arrivals=[(0, 70.0)], active=1))
@example(case=_case(W, 2.5, 160.0, queue=[0] * 3, running=[(0, 90.0)] * 3, active=1))
# A skipped run fits only after a later placement grew the capacity:
# a negative request, or a zero-disk one clamping a negative free disk.
@example(case=_case(WORKERS[2], 1.0, 5.0, queue=[12, 11], active=1))
@example(case=_case(GROWING_WORKER, 1.0, 5.0, queue=[13, 8], active=1))
@example(case=_case(WORKERS[2], 1.0, 5.0, queue=[12], arrivals=[(11, 0.5)], active=1))
# Signed zeros: free cores of -0.0, and the longest of a 0.0 and a -0.0
# runtime, which is the first one.
@example(case=_case(SIGNED_ZERO_WORKER, 1.0, 5.0, running=[(8, 1_000.0)], active=1))
@example(case=_case(
    W, 1.0, 5.0, running=[(0, 0.0), (0, -0.0)], active=3, idle=2, min_cycle_s=-1.0
))
# Demand far above capacity: the clamp fires in the middle of the fold.
@example(case=_case(
    W, 1.0, 30.0, queue=[0], running=[(6, 10.0)] * 4 + [(0, 20.0)], active=2
))
def test_event_step_estimator_matches_the_literal_one(case):
    _assert_same_plan(case["worker"], case["config"], case["kwargs"])
