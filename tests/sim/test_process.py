"""Unit tests for generator processes, signals, and join combinators."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError
from repro.sim.process import AllOf, AnyOf, ProcessFailed, Signal, Timeout, Wait, spawn


class TestTimeout:
    def test_process_sleeps_for_timeout(self, engine):
        log = []

        def body():
            log.append(engine.now)
            yield Timeout(5.0)
            log.append(engine.now)

        spawn(engine, body())
        engine.run()
        assert log == [0.0, 5.0]

    def test_timeout_value_passed_back(self, engine):
        got = []

        def body():
            v = yield Timeout(1.0, value="payload")
            got.append(v)

        spawn(engine, body())
        engine.run()
        assert got == ["payload"]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_process_result_is_return_value(self, engine):
        def body():
            yield Timeout(1.0)
            return 42

        p = spawn(engine, body())
        engine.run()
        assert p.done
        assert p.result == 42
        assert p.error is None


class TestSignal:
    def test_fire_wakes_waiters_with_payload(self, engine):
        sig = Signal(engine, "s")
        got = []

        def body():
            v = yield Wait(sig)
            got.append(v)

        spawn(engine, body())
        engine.call_in(3.0, sig.fire, "hello")
        engine.run()
        assert got == ["hello"]

    def test_fire_returns_waiter_count(self, engine):
        sig = Signal(engine, "s")

        def waiter():
            yield Wait(sig)

        for _ in range(3):
            spawn(engine, waiter())
        engine.run(until=0.0)
        assert sig.fire() == 3

    def test_payload_not_buffered(self, engine):
        sig = Signal(engine, "s")
        got = []
        sig.fire("lost")

        def late():
            v = yield Wait(sig)
            got.append(v)

        spawn(engine, late())
        engine.call_in(1.0, sig.fire, "second")
        engine.run()
        assert got == ["second"]

    def test_fire_once_latches(self, engine):
        sig = Signal(engine, "s")
        sig.fire_once("latched")
        got = []

        def late():
            v = yield Wait(sig)
            got.append(v)

        spawn(engine, late())
        engine.run()
        assert got == ["latched"]
        assert sig.latched

    def test_fire_once_is_idempotent(self, engine):
        sig = Signal(engine, "s")
        sig.fire_once(1)
        sig.fire_once(2)
        got = []
        sig.add_waiter(got.append)
        engine.run()
        assert got == [1]


class TestProcessComposition:
    def test_parent_waits_for_child_result(self, engine):
        def child():
            yield Timeout(4.0)
            return "child-done"

        got = []

        def parent():
            v = yield spawn(engine, child(), "child")
            got.append((v, engine.now))

        spawn(engine, parent(), "parent")
        engine.run()
        assert got == [("child-done", 4.0)]

    def test_child_failure_propagates_as_process_failed(self, engine):
        def child():
            yield Timeout(1.0)
            raise ValueError("boom")

        caught = []

        def parent():
            try:
                yield spawn(engine, child(), "child")
            except ProcessFailed as exc:
                caught.append(exc)

        spawn(engine, parent())
        engine.run()
        assert len(caught) == 1
        assert isinstance(caught[0].cause, ValueError)

    def test_allof_collects_in_declaration_order(self, engine):
        got = []

        def body():
            values = yield AllOf([Timeout(5.0, "slow"), Timeout(1.0, "fast")])
            got.append((values, engine.now))

        spawn(engine, body())
        engine.run()
        assert got == [(["slow", "fast"], 5.0)]

    def test_allof_empty_completes_immediately(self, engine):
        got = []

        def body():
            values = yield AllOf([])
            got.append(values)

        spawn(engine, body())
        engine.run()
        assert got == [[]]

    def test_anyof_returns_winner_index_and_value(self, engine):
        got = []

        def body():
            winner = yield AnyOf([Timeout(5.0, "slow"), Timeout(1.0, "fast")])
            got.append((winner, engine.now))

        spawn(engine, body())
        engine.run()
        assert got == [((1, "fast"), 1.0)]

    def test_anyof_cancels_losers(self, engine):
        def body():
            yield AnyOf([Timeout(1.0), Timeout(100.0)])

        spawn(engine, body())
        engine.run()
        assert engine.now == 1.0  # the 100s timer must not hold the clock

    def test_anyof_requires_items(self):
        with pytest.raises(SimulationError):
            AnyOf([])

    def test_anyof_with_signal_detaches_on_timeout_win(self, engine):
        sig = Signal(engine, "s")

        def body():
            yield AnyOf([Wait(sig), Timeout(2.0)])

        spawn(engine, body())
        engine.run()
        assert sig.waiter_count == 0


class TestCancellation:
    def test_cancel_stops_process(self, engine):
        log = []

        def body():
            yield Timeout(10.0)
            log.append("never")

        p = spawn(engine, body())
        engine.call_in(1.0, p.cancel)
        engine.run()
        assert log == []
        assert p.done

    def test_cancel_runs_finally_blocks(self, engine):
        log = []

        def body():
            try:
                yield Timeout(10.0)
            finally:
                log.append("cleanup")

        p = spawn(engine, body())
        engine.call_in(1.0, p.cancel)
        engine.run()
        assert log == ["cleanup"]

    def test_done_signal_fires_on_completion(self, engine):
        def body():
            yield Timeout(2.0)
            return "v"

        p = spawn(engine, body())
        got = []
        p.done_signal.add_waiter(got.append)
        engine.run()
        assert got == [("v", None)]

    def test_unsupported_yield_fails_process(self, engine):
        def body():
            yield "garbage"

        p = spawn(engine, body())
        engine.run()
        assert p.done
        assert isinstance(p.error, SimulationError)
