"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, PeriodicTask, SimulationError
from tests.reference import engine_literal


class TestScheduling:
    def test_clock_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_call_in_advances_clock_to_event_time(self, engine):
        fired = []
        engine.call_in(5.0, fired.append, "a")
        engine.run()
        assert fired == ["a"]
        assert engine.now == 5.0

    def test_call_at_absolute_time(self, engine):
        times = []
        engine.call_at(3.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [3.0]

    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.call_in(10.0, order.append, "late")
        engine.call_in(1.0, order.append, "early")
        engine.call_in(5.0, order.append, "mid")
        engine.run()
        assert order == ["early", "mid", "late"]

    def test_same_time_events_fire_fifo(self, engine):
        order = []
        for i in range(10):
            engine.call_at(7.0, order.append, i)
        engine.run()
        assert order == list(range(10))

    def test_call_soon_fires_at_current_instant(self, engine):
        stamps = []
        engine.call_in(2.0, lambda: engine.call_soon(lambda: stamps.append(engine.now)))
        engine.run()
        assert stamps == [2.0]

    def test_scheduling_in_the_past_raises(self, engine):
        engine.call_in(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(1.0, lambda: None)

    def test_negative_delay_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.call_in(-1.0, lambda: None)

    def test_non_finite_time_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.call_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            engine.call_at(float("nan"), lambda: None)

    def test_callback_args_are_passed(self, engine):
        got = []
        engine.call_in(1.0, lambda a, b: got.append((a, b)), 1, "x")
        engine.run()
        assert got == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        ev = engine.call_in(1.0, fired.append, "x")
        ev.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self, engine):
        ev = engine.call_in(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert not ev.pending

    def test_cancel_after_fire_is_safe(self, engine):
        ev = engine.call_in(1.0, lambda: None)
        engine.run()
        ev.cancel()
        assert ev.fired

    def test_pending_property_lifecycle(self, engine):
        ev = engine.call_in(1.0, lambda: None)
        assert ev.pending
        engine.run()
        assert not ev.pending

    def test_pending_count_excludes_cancelled(self, engine):
        ev1 = engine.call_in(1.0, lambda: None)
        engine.call_in(2.0, lambda: None)
        ev1.cancel()
        assert engine.pending_count() == 1


class TestRun:
    def test_run_until_stops_at_horizon(self, engine):
        fired = []
        engine.call_in(10.0, fired.append, "later")
        engine.run(until=5.0)
        assert fired == []
        assert engine.now == 5.0

    def test_run_until_fires_events_at_horizon(self, engine):
        fired = []
        engine.call_in(5.0, fired.append, "boundary")
        engine.run(until=5.0)
        assert fired == ["boundary"]

    def test_run_until_advances_clock_when_queue_drains(self, engine):
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_run_resumes_after_horizon(self, engine):
        fired = []
        engine.call_in(10.0, fired.append, "x")
        engine.run(until=5.0)
        engine.run()
        assert fired == ["x"]
        assert engine.now == 10.0

    def test_max_events_limits_firing(self, engine):
        fired = []
        for i in range(10):
            engine.call_in(float(i + 1), fired.append, i)
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_fires_exactly_one(self, engine):
        fired = []
        engine.call_in(1.0, fired.append, "a")
        engine.call_in(2.0, fired.append, "b")
        assert engine.step()
        assert fired == ["a"]

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_engine_not_reentrant(self, engine):
        errors = []

        def reenter():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(exc)

        engine.call_in(1.0, reenter)
        engine.run()
        assert len(errors) == 1

    def test_step_refused_inside_run(self, engine):
        # A nested step() at t=1 would fire the t=5 event early and leave
        # the outer callback at now == 5.0, its call_in(1.0) at 6.0.
        errors, seen = [], []

        def outer():
            try:
                engine.step()
            except SimulationError as exc:
                errors.append(exc)
            seen.append(engine.now)
            engine.call_in(1.0, seen.append, "late")

        engine.call_in(1.0, outer)
        later = engine.call_in(5.0, lambda: None)
        engine.run(until=2.0)
        assert len(errors) == 1
        assert seen == [1.0, "late"]
        assert later.pending

    def test_run_and_step_refused_inside_step(self, engine):
        errors = []

        def reenter():
            for nested in (engine.run, engine.step):
                try:
                    nested()
                except SimulationError as exc:
                    errors.append(exc)

        engine.call_in(1.0, reenter)
        engine.call_in(5.0, lambda: None)
        assert engine.step()
        assert len(errors) == 2
        assert engine.now == 1.0
        # The engine is usable again once the stepped callback returns.
        assert engine.step()
        assert engine.now == 5.0

    def test_events_can_schedule_more_events(self, engine):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                engine.call_in(1.0, chain, n + 1)

        engine.call_in(1.0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert engine.now == 6.0

    def test_events_fired_counter(self, engine):
        for _ in range(4):
            engine.call_in(1.0, lambda: None)
        engine.run()
        assert engine.events_fired == 4


class TestCallSoonEach:
    """One heap entry per same-instant fan-out, one event per member."""

    @staticmethod
    def _members(out, n, tag="m"):
        return [(out.append, (f"{tag}{i}",)) for i in range(n)]

    def test_members_fire_in_order_at_the_current_instant(self, engine):
        out = []
        engine.call_in(3.0, lambda: engine.call_soon_each(
            [(lambda i=i: out.append((i, engine.now)), ()) for i in range(4)]))
        engine.run()
        assert out == [(0, 3.0), (1, 3.0), (2, 3.0), (3, 3.0)]
        assert engine.events_fired == 5

    def test_empty_fan_out_schedules_nothing(self, engine):
        engine.call_soon_each([])
        assert engine.pending_count() == 0
        assert engine.peek() is None

    def test_step_fires_one_member_at_a_time(self, engine):
        out = []
        engine.call_soon_each(self._members(out, 3))
        engine.call_soon(out.append, "after")
        assert engine.step()
        assert out == ["m0"]
        assert engine.step()
        assert out == ["m0", "m1"]
        assert engine.step() and engine.step()
        assert out == ["m0", "m1", "m2", "after"]
        assert engine.step() is False
        assert engine.events_fired == 4

    def test_max_events_stops_inside_a_fan_out(self, engine):
        out = []
        engine.call_soon_each(self._members(out, 5))
        engine.call_soon(out.append, "after")
        engine.run(max_events=2)
        assert out == ["m0", "m1"]
        assert engine.events_fired == 2
        # Whatever is scheduled now sorts after the members still queued.
        engine.call_soon(out.append, "late")
        engine.run(max_events=1)
        assert out == ["m0", "m1", "m2"]
        engine.run()
        assert out == ["m0", "m1", "m2", "m3", "m4", "after", "late"]
        assert engine.events_fired == 7

    def test_raising_member_leaves_the_rest_queued(self, engine):
        out = []

        def boom():
            out.append("boom")
            raise ValueError("member failed")

        engine.call_soon_each([(out.append, ("m0",)), (boom, ()), (out.append, ("m2",))])
        engine.call_soon(out.append, "after")
        with pytest.raises(ValueError):
            engine.run()
        assert out == ["m0", "boom"]
        assert engine.events_fired == 2
        assert engine.pending_count() == 2
        engine.call_soon(out.append, "late")
        engine.run()
        assert out == ["m0", "boom", "m2", "after", "late"]

    def test_pending_count_counts_members_not_yet_fired(self, engine):
        out = []
        engine.call_soon_each(self._members(out, 4))
        engine.call_in(1.0, out.append, "timer")
        assert engine.pending_count() == 5
        engine.step()
        assert engine.pending_count() == 4
        engine.run(max_events=2)
        assert engine.pending_count() == 2
        engine.run()
        assert engine.pending_count() == 0

    def test_events_fired_inside_members_equals_the_literal_engines(self):
        def program(eng):
            seen = []

            def probe(tag):
                seen.append((tag, eng.now, eng.events_fired))

            def burst():
                probe("burst")
                calls = [(probe, (f"m{i}",)) for i in range(3)]
                if hasattr(eng, "call_soon_each"):
                    eng.call_soon_each(calls)
                else:
                    for fn, args in calls:
                        eng.call_soon(fn, *args)
                eng.call_soon(probe, "next")

            eng.call_in(1.0, probe, "t1")
            eng.call_in(2.0, burst)
            eng.call_in(2.0, probe, "t2")
            eng.run()
            return seen

        assert program(Engine()) == program(engine_literal.Engine())

    def test_member_call_soon_runs_after_the_last_member(self, engine):
        out = []

        def first():
            out.append("m0")
            engine.call_soon(out.append, "scheduled by m0")

        engine.call_soon_each([(first, ()), (out.append, ("m1",)), (out.append, ("m2",))])
        engine.run()
        assert out == ["m0", "m1", "m2", "scheduled by m0"]

    def test_fan_out_respects_run_until(self, engine):
        out = []
        engine.call_in(5.0, lambda: engine.call_soon_each(self._members(out, 2)))
        engine.run(until=4.0)
        assert out == [] and engine.now == 4.0
        engine.run(until=5.0)
        assert out == ["m0", "m1"] and engine.now == 5.0


class TestPeriodicTask:
    def test_fires_every_period(self, engine):
        stamps = []
        PeriodicTask(engine, 10.0, lambda: stamps.append(engine.now))
        engine.run(until=35.0)
        assert stamps == [10.0, 20.0, 30.0]

    def test_start_after_overrides_first_delay(self, engine):
        stamps = []
        PeriodicTask(engine, 10.0, lambda: stamps.append(engine.now), start_after=0.0)
        engine.run(until=25.0)
        assert stamps == [0.0, 10.0, 20.0]

    def test_stop_prevents_further_firing(self, engine):
        stamps = []
        task = PeriodicTask(engine, 5.0, lambda: stamps.append(engine.now))
        engine.run(until=12.0)
        task.stop()
        engine.run(until=100.0)
        assert stamps == [5.0, 10.0]
        assert not task.running

    def test_returning_false_stops_loop(self, engine):
        stamps = []

        def once():
            stamps.append(engine.now)
            return False

        PeriodicTask(engine, 5.0, once)
        engine.run(until=100.0)
        assert stamps == [5.0]

    def test_return_delay_ignored_by_default(self, engine):
        stamps = []

        def body():
            stamps.append(engine.now)
            return 100.0  # must NOT be treated as a delay

        PeriodicTask(engine, 5.0, body)
        engine.run(until=16.0)
        assert stamps == [5.0, 10.0, 15.0]

    def test_return_delay_honoured_when_enabled(self, engine):
        stamps = []

        def body():
            stamps.append(engine.now)
            return 20.0

        PeriodicTask(engine, 5.0, body, use_return_delay=True)
        engine.run(until=50.0)
        assert stamps == [5.0, 25.0, 45.0]

    def test_non_positive_returned_delay_raises(self, engine):
        PeriodicTask(engine, 5.0, lambda: 0.0, use_return_delay=True)
        with pytest.raises(SimulationError):
            engine.run(until=10.0)

    def test_non_positive_period_rejected(self, engine):
        with pytest.raises(SimulationError):
            PeriodicTask(engine, 0.0, lambda: None)

    def test_stop_inside_callback(self, engine):
        stamps = []
        holder = {}

        def body():
            stamps.append(engine.now)
            holder["task"].stop()

        holder["task"] = PeriodicTask(engine, 5.0, body)
        engine.run(until=100.0)
        assert stamps == [5.0]
