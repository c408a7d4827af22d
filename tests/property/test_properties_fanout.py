"""Property: a one-entry fan-out equals literal per-callback events.

:meth:`Engine.call_soon_each` puts a same-instant sequence of callbacks
on the heap as one entry; the engine it replaced (kept verbatim in
:mod:`tests.reference.engine_literal`) took one ``call_soon`` per
callback. Two levels are checked.

Engine level: every example runs one random program on both engines.
Programs mix timers scheduled from the top and from inside callbacks
(nested up to three deep), fan-outs of 0–8 members, cancels of any
handle (fired and cancelled ones included), members that raise, and
drives by ``run(until=)``, ``run(max_events=1..3)``, ``step()`` and a
plain ``run()``. Both engines must give the same
``(callback, now, events_fired)`` trace, the same exceptions, and the
same ``now``, ``events_fired``, ``pending_count()`` and ``peek()`` after
every drive.

API level: every example replays one random history on
:class:`~repro.cluster.api.KubeApiServer` over the fast engine and on
:class:`~tests.reference.api_literal.LiteralKubeApiServer` (the
per-handler ``_notify``) over the literal engine. Histories mix node and
pod creates, binds, status writes and deletes, unscoped and node-keyed
pod watches with and without replay, node watches, unwatches (keyed
ones by node too), API outages and watch-drop windows, and partial
drives. Both must deliver the same events to the same handlers at the
same instants and event counts, and count the same dropped events.
"""

from __future__ import annotations

from typing import Callable, Dict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.api import KubeApiServer
from repro.cluster.images import ContainerImage
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodSpec
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from tests.reference import engine_literal
from tests.reference.api_literal import LiteralKubeApiServer

# ------------------------------------------------------------ engine level

N_BEHAVIOURS = 8
MAX_DEPTH = 3
#: A program stops nesting once its trace is this long (the same point on
#: both engines while their traces agree).
MAX_TRACE = 400
DELAYS = [0.0, 0.0, 0.5, 1.0, 2.5]

action_st = st.one_of(
    st.tuples(st.just("at"), st.sampled_from(DELAYS), st.integers(0, N_BEHAVIOURS - 1)),
    st.tuples(
        st.just("fan"), st.lists(st.integers(0, N_BEHAVIOURS - 1), max_size=8)
    ),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)
behaviour_st = st.tuples(
    st.integers(0, 5).map(lambda n: n == 0),  # raises after recording
    st.lists(action_st, max_size=3),
)
drive_st = st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("max"), st.integers(1, 3)),
    st.tuples(st.just("step")),
)
op_st = st.one_of(action_st, drive_st)


class Boom(Exception):
    """A member that raises on purpose."""


def _literal_fan_out(engine, calls) -> None:
    for fn, args in calls:
        engine.call_soon(fn, *args)


def _fast_fan_out(engine, calls) -> None:
    engine.call_soon_each(calls)


def _run_program(engine, fan_out: Callable, behaviours, ops) -> list:
    trace: list = []
    handles: list = []

    def fire(b: int, depth: int) -> None:
        trace.append((b, depth, engine.now, engine.events_fired))
        raises, actions = behaviours[b]
        if depth < MAX_DEPTH and len(trace) < MAX_TRACE:
            act(actions, depth + 1)
        if raises:
            raise Boom(b)

    def act(actions, depth: int) -> None:
        for action in actions:
            if action[0] == "at":
                handles.append(engine.call_in(action[1], fire, action[2], depth))
            elif action[0] == "fan":
                fan_out(engine, [(fire, (b, depth)) for b in action[1]])
            elif handles:
                handles[action[1] % len(handles)].cancel()

    def state() -> tuple:
        return (engine.now, engine.events_fired, engine.pending_count(), engine.peek())

    for op in ops:
        try:
            if op[0] == "until":
                engine.run(until=engine.now + op[1])
            elif op[0] == "max":
                engine.run(max_events=op[1])
            elif op[0] == "step":
                trace.append(("step", engine.step()))
            else:
                act([op], 0)
        except Boom as exc:
            trace.append(("raised", exc.args))
        trace.append(("state", state()))
    while True:
        try:
            engine.run()
            break
        except Boom as exc:
            trace.append(("raised", exc.args))
    trace.append(("end", state()))
    return trace


def _both(behaviours, ops) -> None:
    fast = _run_program(Engine(), _fast_fan_out, behaviours, ops)
    literal = _run_program(engine_literal.Engine(), _literal_fan_out, behaviours, ops)
    assert fast == literal


@settings(max_examples=300, deadline=None)
@given(
    st.lists(behaviour_st, min_size=N_BEHAVIOURS, max_size=N_BEHAVIOURS),
    st.lists(op_st, min_size=1, max_size=25),
)
@example(
    # A budget of 2 splits a raising fan-out; a top-level timer is
    # cancelled after it fired.
    [(False, [])] * 3 + [(True, [("fan", [0, 1])])] + [(False, [])] * 4,
    [("fan", [0, 3, 1, 2]), ("at", 0.0, 2), ("max", 2), ("cancel", 0),
     ("step",), ("until", 0.0), ("max", 3)],
)
def test_fan_out_engine_matches_literal_engine(behaviours, ops):
    _both(behaviours, ops)


# --------------------------------------------------------------- API level

N_NODES = 2
N_PODS = 3
N_HANDLERS = 4

api_op_st = st.one_of(
    st.tuples(st.just("node"), st.integers(0, N_NODES - 1)),
    st.tuples(st.just("pod"), st.integers(0, N_PODS - 1), st.integers(0, N_NODES - 1)),
    st.tuples(st.just("bind"), st.integers(0, N_PODS - 1), st.integers(0, N_NODES - 1)),
    st.tuples(st.just("modify"), st.integers(0, N_PODS - 1)),
    st.tuples(st.just("modify_node"), st.integers(0, N_NODES - 1)),
    st.tuples(st.just("delete_pod"), st.integers(0, N_PODS - 1)),
    st.tuples(st.just("delete_node"), st.integers(0, N_NODES - 1)),
    st.tuples(
        st.just("watch"), st.sampled_from(["Pod", "Node"]),
        st.integers(0, N_HANDLERS - 1), st.booleans(),
    ),
    st.tuples(
        st.just("keyed"), st.integers(0, N_NODES - 1),
        st.integers(0, N_HANDLERS - 1), st.booleans(),
    ),
    st.tuples(
        st.just("unwatch"), st.sampled_from(["Pod", "Node"]),
        st.integers(0, N_HANDLERS - 1),
    ),
    st.tuples(
        st.just("keyed_unwatch"), st.integers(0, N_NODES - 1),
        st.integers(0, N_HANDLERS - 1),
    ),
    st.tuples(st.just("outage"), st.booleans()),
    st.tuples(st.just("drop"), st.sampled_from(["Pod", "Node"]), st.booleans()),
    st.tuples(st.just("run"), st.integers(0, 4)),
)


def _replay_api(engine, api: KubeApiServer, ops) -> list:
    trace: list = []
    nodes: Dict[int, Node] = {}
    pods: Dict[int, Pod] = {}
    handlers: Dict[tuple, Callable] = {}

    def handler(key: tuple) -> Callable:
        # One function per (kind, index): unwatch finds it by equality.
        if key not in handlers:
            def on_event(event, key=key):
                trace.append((
                    key, event.type.value, event.obj.kind, event.obj.name,
                    event.version, event.time, engine.now, engine.events_fired,
                ))
            handlers[key] = on_event
        return handlers[key]

    def stored(kind: str, obj) -> bool:
        return obj is not None and api.try_get(kind, obj.name) is obj

    def bind(i: int, n: int) -> None:
        pod, node = pods.get(i), nodes.get(n)
        if stored("Pod", pod) and stored("Node", node) and pod.node is None:
            pod.mark_scheduled(engine.now, node)
            node.bind(pod)
            api.mark_modified(pod)

    for n in range(N_NODES):
        nodes[n] = api.create(Node(f"n{n}"))
    for op in ops:
        kind = op[0]
        if kind == "node":
            if not stored("Node", nodes.get(op[1])):
                nodes[op[1]] = api.create(Node(f"n{op[1]}"))
        elif kind == "pod":
            if not stored("Pod", pods.get(op[1])):
                spec = PodSpec(ContainerImage("img", 10), ResourceVector(1, 100, 100))
                pods[op[1]] = api.create(Pod(f"p{op[1]}", spec))
            bind(op[1], op[2])
        elif kind == "bind":
            bind(op[1], op[2])
        elif kind == "modify":
            if stored("Pod", pods.get(op[1])):
                api.mark_modified(pods[op[1]])
        elif kind == "modify_node":
            if stored("Node", nodes.get(op[1])):
                api.mark_modified(nodes[op[1]])
        elif kind == "delete_pod":
            if stored("Pod", pods.get(op[1])):
                api.delete("Pod", pods[op[1]].name)
        elif kind == "delete_node":
            if stored("Node", nodes.get(op[1])):
                api.delete("Node", nodes[op[1]].name)
        elif kind == "watch":
            api.watch(op[1], handler((op[1], op[2])), replay_existing=op[3])
        elif kind == "keyed":
            node = nodes.get(op[1]) or Node(f"n{op[1]}")
            api.watch_pods_on_node(node, handler(("keyed", op[2])), replay_existing=op[3])
        elif kind == "unwatch":
            # A keyed handler is found by the Pod unwatch's second pass.
            key = (op[1], op[2]) if op[1] == "Node" or op[2] % 2 else ("keyed", op[2])
            api.unwatch(op[1], handler(key))
        elif kind == "keyed_unwatch":
            # By node name: a deleted node's object still names its list.
            node = nodes.get(op[1]) or Node(f"n{op[1]}")
            api.unwatch_pods_on_node(node, handler(("keyed", op[2])))
        elif kind == "outage":
            api.begin_outage() if op[1] else api.end_outage()
        elif kind == "drop":
            api.begin_watch_drop(op[1]) if op[2] else api.end_watch_drop(op[1])
        elif op[1] == 0:
            trace.append(("step", engine.step()))
        else:
            engine.run(max_events=op[1])
        trace.append((
            "state", engine.events_fired, engine.pending_count(),
            api.dropped_events, api.watcher_count("Pod"), api.watcher_count("Node"),
        ))
    engine.run()
    trace.append(("end", engine.events_fired, api.dropped_events))
    return trace


@settings(max_examples=300, deadline=None)
@given(st.lists(api_op_st, min_size=5, max_size=60))
@example([
    # Keyed watchers registered between unscoped ones (the merge order),
    # each after a write that cached the node's delivery order.
    ("watch", "Pod", 1, False), ("keyed", 0, 0, True), ("pod", 0, 0),
    ("run", 2), ("watch", "Pod", 3, True), ("modify", 0),
    ("keyed", 0, 2, False), ("modify", 0), ("unwatch", "Pod", 3),
    ("modify", 0), ("unwatch", "Pod", 0), ("modify", 0), ("outage", True),
    ("modify", 0), ("outage", False), ("delete_pod", 0),
])
def test_fan_out_api_matches_per_handler_api(ops):
    fast_engine, literal_engine = Engine(), engine_literal.Engine()
    fast = _replay_api(fast_engine, KubeApiServer(fast_engine), ops)
    literal = _replay_api(
        literal_engine, LiteralKubeApiServer(literal_engine), ops  # type: ignore[arg-type]
    )
    assert fast == literal
