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
* histories that start at t=1e5, where the completion tolerance is below
  the clock's resolution and only the livelock rule ends a transfer.

Both runs must fire the same events, call back in the same order at the
same instants, read the same ``remaining_mb`` / ``rate_mbps`` /
``current_rate_of`` mid-flight, and leave equal throughput series,
``bytes_moved_mb`` and ``transfers_completed``. Values are compared by
``repr``, which is exact for floats and also tells an integer cap from an
equal float share.
"""

from __future__ import annotations

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


def _cap(mode: str, shared: int, choice: int) -> Optional[float]:
    if mode == "none":
        return None
    if mode == "shared":
        return CAPS[shared]
    return None if choice == len(CAPS) else CAPS[choice]


def _replay(module, capacity, overhead, mode, shared, base, history: list):
    engine = Engine()
    link = module.Link(engine, capacity, per_stream_overhead=overhead)
    log: list = []
    transfers: list = []

    def done(t) -> None:
        log.append(("done", t.label, engine.now, t.finish_time, t.remaining_mb))

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

    at = base
    for n, (gap, op) in enumerate(history):
        at += gap
        if op[0] == "start":
            engine.call_at(at, start, f"t{n}", op[1], op[2])
        else:
            engine.call_at(at, cancel if op[0] == "cancel" else probe, op[1])
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
    got = _replay(fast, capacity, overhead, mode, shared, base, history)
    want = _replay(literal, capacity, overhead, mode, shared, base, history)
    assert got == want
    assert repr(got) == repr(want)
