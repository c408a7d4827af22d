"""Property: the one-rate link equals literal per-stream water-filling.

Every example replays one random history of starts, cancels and
mid-flight reads twice on fresh engines — once on
:class:`~repro.wq.link.Link`, once on the verbatim per-stream loop in
:mod:`tests.reference.link_literal`. The histories mix:

* no caps, one cap shared by every stream, and mixed caps (uncapped
  streams among them), some below the fair share and some exactly at it;
* link capacities that do and do not divide evenly, with and without
  ``per_stream_overhead``;
* zero, integer and arbitrary sizes, started in same-instant bursts or
  on a grid that makes starts coincide with completions;
* cancels of in-flight, finished, zero-size and already-cancelled
  transfers;
* histories that start at t=1e5 (and, with many streams, at t=1e7),
  where the completion tolerance is below the clock's resolution and
  only the livelock rule ends a transfer;
* lone-stream histories (a start after each completion, cancels of the
  only stream, zero-size starts beside it, a start at the instant it
  finishes), which the link serves on scalars;
* many-stream histories: same-instant bursts of hundreds to low
  thousands of streams, cancels and probes, which cross the link's
  array threshold (``ARRAY_FROM``) on the way up and ``LIST_BELOW`` on
  the way down, with integer sizes and caps read before their first
  settle.

Both runs must fire the same events, call back in the same order at the
same instants, read the same ``remaining_mb`` / ``rate_mbps`` /
``current_rate_of`` mid-flight, and leave equal throughput series,
``bytes_moved_mb`` and ``transfers_completed``. Values are compared by
``repr``, which is exact for floats and also tells an integer cap from an
equal float share.
"""

from __future__ import annotations

import random
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.wq import link as fast
from tests.reference import link_literal as literal

#: Rate caps for the shared and mixed modes. No two compare equal across
#: types (50 and 50.0): with equal caps the tally keeps one of them, so
#: the rate's type could differ from the per-stream loop's, not its value.
CAPS = [3.5, 10, 25, 50, 120.0, 1000.0]
CAPACITIES = [100, 333.3, 500.0]
OVERHEADS = [0.0, 0.05, 0.3]
SIZES = st.one_of(
    st.sampled_from([0, 0.0, 1, 25, 50.0, 100, 123.456]),
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
)
#: 1.23456 s is 123.456 MB alone at 100 MB/s: a start lands on a completion.
GAPS = [0.0, 0.0, 0.5, 1.0, 1.0, 1.23456, 2.0, 3.7]

op_st = st.one_of(
    st.tuples(st.just("start"), SIZES, st.integers(0, len(CAPS))),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("probe"), st.integers(0, 63)),
)
history_st = st.lists(st.tuples(st.sampled_from(GAPS), op_st), min_size=1, max_size=40)

#: Gaps long enough that most starts find the link idle; 1.23456 s still
#: lands a start on a 123.456 MB completion at 100 MB/s.
LONE_GAPS = [0.0, 1.0, 1.23456, 2.0, 5.0, 50.0]
lone_history_st = st.lists(st.tuples(st.sampled_from(LONE_GAPS), op_st), min_size=1, max_size=12)
#: Sizes started, one per completion, from each completion's callback.
chain_st = st.lists(SIZES, max_size=6)

#: Burst sizes: integers and floats, drawn from a seeded generator so an
#: example stays small however many streams it starts.
BURST_SIZES = [25, 50.0, 100, 123.456]
many_op_st = st.one_of(
    st.tuples(st.just("burst"), st.integers(1, 800), st.integers(0, 2**16)),
    st.tuples(st.just("cancels"), st.integers(1, 600), st.integers(0, 2**16)),
    st.tuples(st.just("probes"), st.integers(1, 30), st.integers(0, 2**16)),
)
MANY_GAPS = [0.0, 0.0, 0.5, 5.0, 50.0, 500.0]
#: When 150 equal 123.456 MB streams at 100 MB/s finish, by the link's own
#: arithmetic. Settling at that instant moves 1.4e-14 MB more than each
#: has left, so only the clamp keeps what they have left at 0.0.
OVERSHOOT_AT = 123.456 / (100 / (1.0 + 0.0 * 149) / 150)
many_history_st = st.lists(
    st.tuples(st.sampled_from(MANY_GAPS), many_op_st), min_size=1, max_size=6
)


def _cap(mode: str, shared: int, choice: int) -> Optional[float]:
    if mode == "none":
        return None
    if mode == "shared":
        return CAPS[shared]
    return None if choice == len(CAPS) else CAPS[choice]


def _replay(module, capacity, overhead, mode, shared, base, history: list, chain=()):
    engine = Engine()
    link = module.Link(engine, capacity, per_stream_overhead=overhead)
    log: list = []
    transfers: list = []
    chained = list(chain)

    def done(t) -> None:
        log.append(("done", t.label, engine.now, t.finish_time, t.remaining_mb))
        if chained:
            start(f"{t.label}+", chained.pop(0), len(transfers) % (len(CAPS) + 1))

    def start(label: str, size: float, choice: int) -> None:
        cap = _cap(mode, shared, choice)
        transfers.append(link.start_transfer(label, size, rate_cap_mbps=cap, on_complete=done))

    def cancel(k: int) -> None:
        if transfers:
            t = transfers[k % len(transfers)]
            link.cancel(t)
            log.append(("cancel", t.label, t.cancelled, t.remaining_mb))

    def probe(k: int) -> None:
        if transfers:
            t = transfers[k % len(transfers)]
            log.append((
                "probe", t.label, t.remaining_mb, t.rate_mbps,
                link.current_rate_of(t), t.done, t.cancelled, link.active_count,
            ))

    def burst(label: str, count: int, seed: int) -> None:
        rng = random.Random(seed)
        for j in range(count):
            size = rng.choice(BURST_SIZES) if rng.random() < 0.5 else rng.uniform(1.0, 400.0)
            start(f"{label}.{j}", size, rng.randrange(len(CAPS) + 1))

    def each(fn, count: int, seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(count):
            fn(rng.randrange(1 << 30))

    at = base
    for n, (gap, op) in enumerate(history):
        at += gap
        kind = op[0]
        if kind == "start":
            engine.call_at(at, start, f"t{n}", op[1], op[2])
        elif kind == "burst":
            engine.call_at(at, burst, f"b{n}", op[1], op[2])
        elif kind in ("cancels", "probes"):
            engine.call_at(at, each, cancel if kind == "cancels" else probe, op[1], op[2])
        else:
            engine.call_at(at, cancel if kind == "cancel" else probe, op[1])
    engine.run(max_events=100_000)
    assert engine.peek() is None, "link did not quiesce"
    final = [
        (t.label, t.finish_time, t.remaining_mb, t.rate_mbps, t.cancelled, t.done)
        for t in transfers
    ]
    return {
        "log": log,
        "final": final,
        "events": engine.events_fired,
        "times": link.throughput.times,
        "values": link.throughput.values,
        "bytes_moved_mb": link.bytes_moved_mb,
        "transfers_completed": link.transfers_completed,
        "active_count": link.active_count,
    }


def _assert_same(*args, chain=()) -> None:
    got = _replay(fast, *args, chain=chain)
    want = _replay(literal, *args, chain=chain)
    assert got == want
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    overhead=st.sampled_from(OVERHEADS),
    mode=st.sampled_from(["none", "shared", "mixed"]),
    shared=st.integers(0, len(CAPS) - 1),
    base=st.sampled_from([0.0, 1e5]),
    history=history_st,
)
# A shared integer cap exactly at the fair share (100 / 2 streams): the
# share, a float, wins the tie.
@example(
    capacity=100, overhead=0.0, mode="shared", shared=CAPS.index(50), base=0.0,
    history=[(0.0, ("start", 100, 0)), (0.0, ("start", 100, 0)), (0.5, ("probe", 0))],
)
# Five streams at a non-dyadic rate: the throughput sum's order shows.
@example(
    capacity=333.3, overhead=0.05, mode="none", shared=0, base=0.0,
    history=[(0.0, ("start", 50.0, 0))] * 5 + [(0.5, ("start", 7, 0))],
)
# A start at the instant another transfer finishes, before its
# completion event: settling overshoots and the clamp holds it at 0.0.
@example(
    capacity=100, overhead=0.0, mode="none", shared=0, base=0.0,
    history=[(0.0, ("start", 123.456, 0)), (1.23456, ("start", 25, 0)),
             (0.0, ("probe", 0))],
)
def test_fast_link_matches_literal_water_filling(capacity, overhead, mode, shared, base, history):
    _assert_same(capacity, overhead, mode, shared, base, history)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    overhead=st.sampled_from(OVERHEADS),
    mode=st.sampled_from(["none", "shared", "mixed"]),
    shared=st.integers(0, len(CAPS) - 1),
    base=st.sampled_from([0.0, 1e5]),
    history=lone_history_st,
    chain=chain_st,
)
# A start after each completion, from the completion's callback.
@example(
    capacity=100, overhead=0.0, mode="none", shared=0, base=0.0,
    history=[(0.0, ("start", 123.456, 0))], chain=[25, 0, 50.0, 7.5],
)
# A cancel of the lone stream, then a read of what it had left.
@example(
    capacity=333.3, overhead=0.05, mode="shared", shared=CAPS.index(120.0), base=0.0,
    history=[(0.0, ("start", 100, 0)), (0.5, ("cancel", 0)), (0.0, ("probe", 0)),
             (1.0, ("start", 40, 0))], chain=[],
)
# A zero-size start while one stream runs.
@example(
    capacity=100, overhead=0.0, mode="none", shared=0, base=0.0,
    history=[(0.0, ("start", 100, 0)), (0.5, ("start", 0, 0)), (0.0, ("probe", 0))],
    chain=[],
)
# A start at the instant the lone stream finishes, before its completion.
@example(
    capacity=100, overhead=0.0, mode="none", shared=0, base=0.0,
    history=[(0.0, ("start", 123.456, 0)), (1.23456, ("start", 25, 0))], chain=[],
)
# At t=1e5 the last 1.5e-9 MB of this transfer is below the clock's
# resolution: only the livelock rule ends it.
@example(
    capacity=333.3, overhead=0.0, mode="none", shared=0, base=1e5,
    history=[(0.0, ("start", 2.48, 0)), (5.0, ("start", 4.33, 0))], chain=[6.18],
)
def test_lone_stream_histories_match_literal(
    capacity, overhead, mode, shared, base, history, chain
):
    _assert_same(capacity, overhead, mode, shared, base, history, chain=chain)


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.sampled_from(CAPACITIES),
    overhead=st.sampled_from(OVERHEADS),
    mode=st.sampled_from(["none", "shared", "shared", "mixed"]),
    shared=st.integers(0, len(CAPS) - 1),
    base=st.sampled_from([0.0, 1e5, 1e7]),
    history=many_history_st,
)
# Integer sizes and an integer cap read in the burst's own instant, above
# the array threshold, then again after the first settle.
@example(
    capacity=100, overhead=0.0, mode="shared", shared=CAPS.index(10), base=0.0,
    history=[(0.0, ("burst", 300, 1)), (0.0, ("probes", 20, 2)),
             (0.5, ("probes", 20, 3)), (0.0, ("cancels", 40, 4))],
)
# At t=1e7 a stream's last MB fractions are below the clock's resolution:
# the livelock rule ends streams held in the array.
@example(
    capacity=333.3, overhead=0.0, mode="none", shared=0, base=1e7,
    history=[(0.0, ("burst", 300, 0))],
)
# Reads and a start at the instant 150 array-held streams finish, before
# their completion event: settling overshoots and the clamp holds 0.0.
@example(
    capacity=100, overhead=0.0, mode="none", shared=0, base=0.0,
    history=[(0.0, ("start", 123.456, 0))] * 150
    + [(OVERSHOOT_AT, ("probes", 5, 10)), (0.0, ("start", 10, 0))],
)
# Same-instant cancels take a fresh burst back below LIST_BELOW: the list
# gets back the integer sizes the array held as floats.
@example(
    capacity=333.3, overhead=0.0, mode="shared", shared=CAPS.index(25), base=0.0,
    history=[(0.0, ("burst", 300, 11)), (0.0, ("cancels", 600, 12)),
             (0.0, ("probes", 30, 13)), (1.0, ("probes", 30, 14))],
)
# Mixed caps among hundreds of streams stay on the list.
@example(
    capacity=500.0, overhead=0.05, mode="mixed", shared=0, base=0.0,
    history=[(0.0, ("burst", 300, 15)), (0.5, ("probes", 10, 16)),
             (5.0, ("burst", 200, 17))],
)
# Low thousands of streams in two same-instant bursts, thinned by
# cancels, draining through the threshold and back below it.
@example(
    capacity=500.0, overhead=0.0, mode="none", shared=0, base=0.0,
    history=[(0.0, ("burst", 1200, 5)), (0.0, ("burst", 300, 6)),
             (5.0, ("cancels", 100, 7)), (50.0, ("probes", 10, 8)),
             (500.0, ("burst", 200, 9))],
)
def test_many_stream_histories_match_literal(capacity, overhead, mode, shared, base, history):
    _assert_same(capacity, overhead, mode, shared, base, history)
