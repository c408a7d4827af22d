"""The dispatch-plane measurement reports the simulated time it covered."""

from __future__ import annotations

from repro.experiments.shards import run_dispatch_plane
from repro.sim.engine import Engine


def test_a_drained_bag_reports_its_last_event_not_the_chunk_horizon(monkeypatch):
    """The wall-boxed drive runs 1e9 s chunks; when the bag drains inside
    the box the last chunk leaves the clock at its horizon, so the
    report must take the time of the last event that fired instead."""
    last = [0.0]
    call_at = Engine.call_at

    def recording_call_at(engine, time, fn, *args):
        def fire(*a):
            last[0] = max(last[0], engine.now)
            return fn(*a)

        return call_at(engine, time, fire, *args)

    monkeypatch.setattr(Engine, "call_at", recording_call_at)
    m = run_dispatch_plane(2, n_tasks=300, max_wall_s=60.0)
    assert m.tasks_completed == 300
    assert m.sim_s == last[0]
    assert 5.0 < m.sim_s < 1e3


def test_a_wall_boxed_window_reports_the_clock():
    """A box that closes before the first chunk stops at the warm-up
    clock; the drained-bag correction leaves this path alone."""
    m = run_dispatch_plane(2, n_tasks=300, warmup_sim_s=5.0, max_wall_s=-1.0)
    assert m.sim_s == 5.0
    assert m.tasks_completed == 0
