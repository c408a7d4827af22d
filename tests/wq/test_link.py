"""Unit tests for the fair-share link."""

from __future__ import annotations

import math

import pytest

from repro.wq import link as link_module
from repro.wq.link import Link


class TestSingleTransfer:
    def test_completion_time_is_size_over_capacity(self, engine):
        link = Link(engine, 100.0)
        done = []
        link.start_transfer("t", 500.0, on_complete=lambda t: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(5.0)]

    def test_zero_size_completes_immediately(self, engine):
        link = Link(engine, 100.0)
        done = []
        link.start_transfer("t", 0.0, on_complete=lambda t: done.append(engine.now))
        engine.run()
        assert done == [0.0]
        assert link.transfers_completed == 1

    def test_rate_cap_slows_transfer(self, engine):
        link = Link(engine, 100.0)
        done = []
        link.start_transfer(
            "t", 100.0, rate_cap_mbps=10.0, on_complete=lambda t: done.append(engine.now)
        )
        engine.run()
        assert done == [pytest.approx(10.0)]

    def test_negative_size_rejected(self, engine):
        with pytest.raises(ValueError):
            Link(engine, 100.0).start_transfer("t", -1.0)

    def test_invalid_capacity_rejected(self, engine):
        with pytest.raises(ValueError):
            Link(engine, 0.0)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf])
    def test_non_finite_capacity_rejected(self, engine, capacity):
        # A NaN capacity passed the ``<= 0`` check and every transfer
        # then stalled without an error.
        with pytest.raises(ValueError):
            Link(engine, capacity)

    def test_invalid_rate_cap_rejected(self, engine):
        with pytest.raises(ValueError):
            Link(engine, 10.0).start_transfer("t", 1.0, rate_cap_mbps=0.0)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_non_finite_size_rejected(self, engine, size):
        with pytest.raises(ValueError):
            Link(engine, 100.0).start_transfer("t", size)

    @pytest.mark.parametrize("cap", [math.nan, math.inf])
    def test_non_finite_rate_cap_rejected(self, engine, cap):
        with pytest.raises(ValueError):
            Link(engine, 100.0).start_transfer("t", 1.0, rate_cap_mbps=cap)

    def test_rejected_nan_transfer_leaves_the_link_working(self, engine):
        # A NaN size once passed both size checks, turned the
        # next-completion minimum into NaN and armed no event, so a 10 MB
        # transfer started after it never finished.
        link = Link(engine, 100.0)
        with pytest.raises(ValueError):
            link.start_transfer("nan", math.nan)
        t = link.start_transfer("t", 10.0)
        engine.run()
        assert t.done and t.finish_time == pytest.approx(0.1)
        assert link.active_count == 0 and engine.peek() is None

    def test_transfer_duration_recorded(self, engine):
        link = Link(engine, 50.0)
        t = link.start_transfer("t", 100.0)
        engine.run()
        assert t.done
        assert t.duration == pytest.approx(2.0)


class TestFairSharing:
    def test_two_equal_transfers_share_equally(self, engine):
        link = Link(engine, 100.0)
        finishes = {}
        for name in ("a", "b"):
            link.start_transfer(
                name, 100.0, on_complete=lambda t, n=name: finishes.__setitem__(n, engine.now)
            )
        engine.run()
        # Each gets 50 MB/s → both finish at 2 s.
        assert finishes["a"] == pytest.approx(2.0)
        assert finishes["b"] == pytest.approx(2.0)

    def test_late_joiner_slows_first_transfer(self, engine):
        link = Link(engine, 100.0)
        finishes = {}
        link.start_transfer(
            "early", 200.0, on_complete=lambda t: finishes.__setitem__("early", engine.now)
        )
        engine.call_in(
            1.0,
            lambda: link.start_transfer(
                "late", 100.0, on_complete=lambda t: finishes.__setitem__("late", engine.now)
            ),
        )
        engine.run()
        # early: 100 MB in first second, then 100 MB at 50 MB/s → t=3.
        assert finishes["early"] == pytest.approx(3.0)
        # late: 100 MB at 50 MB/s while sharing, then alone — it shares
        # until t=3 (100 MB done at 50 MB/s → exactly t=3 as well).
        assert finishes["late"] == pytest.approx(3.0)

    def test_completion_frees_bandwidth_for_survivors(self, engine):
        link = Link(engine, 100.0)
        finishes = {}
        link.start_transfer("small", 50.0, on_complete=lambda t: finishes.__setitem__("s", engine.now))
        link.start_transfer("big", 150.0, on_complete=lambda t: finishes.__setitem__("b", engine.now))
        engine.run()
        assert finishes["s"] == pytest.approx(1.0)  # 50 MB at 50 MB/s
        # big: 50 MB in the first second, then 100 MB at full 100 MB/s.
        assert finishes["b"] == pytest.approx(2.0)

    def test_water_filling_respects_caps(self, engine):
        link = Link(engine, 100.0)
        finishes = {}
        # One capped at 10: the other should get the residual 90.
        link.start_transfer("capped", 10.0, rate_cap_mbps=10.0,
                            on_complete=lambda t: finishes.__setitem__("c", engine.now))
        link.start_transfer("free", 90.0,
                            on_complete=lambda t: finishes.__setitem__("f", engine.now))
        engine.run()
        assert finishes["c"] == pytest.approx(1.0)
        assert finishes["f"] == pytest.approx(1.0)

    def test_bytes_moved_accounting(self, engine):
        link = Link(engine, 100.0)
        link.start_transfer("a", 120.0)
        link.start_transfer("b", 80.0)
        engine.run()
        assert link.bytes_moved_mb == pytest.approx(200.0)

    def test_active_count(self, engine):
        link = Link(engine, 100.0)
        link.start_transfer("a", 1000.0)
        link.start_transfer("b", 1000.0)
        assert link.active_count == 2
        engine.run()
        assert link.active_count == 0


class TestCancel:
    def test_cancel_stops_transfer_without_callback(self, engine):
        link = Link(engine, 100.0)
        done = []
        t = link.start_transfer("t", 100.0, on_complete=lambda _t: done.append(1))
        engine.call_in(0.5, link.cancel, t)
        engine.run()
        assert done == []
        assert t.cancelled

    def test_cancel_frees_bandwidth(self, engine):
        link = Link(engine, 100.0)
        finishes = {}
        t1 = link.start_transfer("a", 200.0)
        link.start_transfer("b", 150.0, on_complete=lambda t: finishes.__setitem__("b", engine.now))
        engine.call_in(1.0, link.cancel, t1)
        engine.run()
        # b: 50 MB in 1 s shared, then 100 MB alone → t=2.
        assert finishes["b"] == pytest.approx(2.0)

    def test_cancel_done_transfer_is_noop(self, engine):
        link = Link(engine, 100.0)
        t = link.start_transfer("t", 10.0)
        engine.run()
        link.cancel(t)
        assert t.done and not t.cancelled


class TestStreamOverhead:
    def test_effective_capacity_formula(self, engine):
        link = Link(engine, 500.0, per_stream_overhead=0.05)
        assert link.effective_capacity(1) == pytest.approx(500.0)
        assert link.effective_capacity(5) == pytest.approx(500.0 / 1.2)
        assert link.effective_capacity(0) == pytest.approx(500.0)

    def test_overhead_slows_concurrent_transfers(self, engine):
        link = Link(engine, 100.0, per_stream_overhead=1.0)
        done = []
        link.start_transfer("a", 50.0, on_complete=lambda t: done.append(engine.now))
        link.start_transfer("b", 50.0, on_complete=lambda t: done.append(engine.now))
        engine.run()
        # capacity/(1+1) = 50 total → 25 each → 2 s.
        assert done[0] == pytest.approx(2.0)

    def test_negative_overhead_rejected(self, engine):
        with pytest.raises(ValueError):
            Link(engine, 100.0, per_stream_overhead=-0.1)

    @pytest.mark.parametrize("overhead", [math.nan, math.inf])
    def test_non_finite_overhead_rejected(self, engine, overhead):
        # NaN made every rate NaN past one stream; inf gave a lone
        # stream inf * 0 = NaN. Either way no completion was armed.
        with pytest.raises(ValueError):
            Link(engine, 100.0, per_stream_overhead=overhead)


class TestThroughputMetrics:
    def test_throughput_series_records_rates(self, engine):
        link = Link(engine, 100.0)
        link.start_transfer("t", 100.0)
        engine.run()
        assert link.throughput.value_at(0.5) == pytest.approx(100.0)
        assert link.throughput.value_at(1.5) == 0.0

    def test_mean_throughput_time_weighted(self, engine):
        link = Link(engine, 100.0)
        link.start_transfer("t", 100.0)
        engine.run(until=2.0)
        assert link.mean_throughput(0.0, 2.0) == pytest.approx(50.0)

    def test_busy_seconds(self, engine):
        link = Link(engine, 100.0)
        link.start_transfer("t", 100.0)
        engine.call_in(5.0, lambda: link.start_transfer("u", 100.0))
        engine.run(until=10.0)
        assert link.busy_seconds(0.0, 10.0) == pytest.approx(2.0)

    def test_mean_active_throughput_excludes_idle(self, engine):
        link = Link(engine, 100.0)
        link.start_transfer("t", 100.0)
        engine.run(until=10.0)
        assert link.mean_active_throughput(0.0, 10.0) == pytest.approx(100.0)

    def test_mean_active_throughput_zero_when_never_busy(self, engine):
        link = Link(engine, 100.0)
        assert link.mean_active_throughput(0.0, 10.0) == 0.0


class TestOneRateRepresentation:
    def test_mid_flight_reads_come_from_the_link(self, engine):
        link = Link(engine, 100.0)
        a = link.start_transfer("a", 100.0)
        b = link.start_transfer("b", 300.0, rate_cap_mbps=20.0)
        assert a.rate_mbps == 80.0 and b.rate_mbps == 20.0
        # remaining_mb is as of the last settle: b's start, then a's cancel.
        engine.call_in(0.5, link.cancel, a)
        engine.run(until=1.0)
        assert a.remaining_mb == pytest.approx(60.0)
        assert link.current_rate_of(a) == 0.0
        assert b.remaining_mb == pytest.approx(290.0)
        assert link.current_rate_of(b) == 20.0
        assert Link(engine, 100.0).current_rate_of(b) == 0.0
        engine.run()
        assert b.done and b.remaining_mb == 0.0
        assert b.finish_time == pytest.approx(15.0)

    def test_shared_cap_below_fair_share_caps_every_stream(self, engine):
        link = Link(engine, 100.0)
        ts = [link.start_transfer(f"t{i}", 10.0, rate_cap_mbps=20.0) for i in range(3)]
        assert [link.current_rate_of(t) for t in ts] == [20.0, 20.0, 20.0]
        assert link.throughput.value_at(0.0) == 60.0
        engine.run()
        assert [t.finish_time for t in ts] == [pytest.approx(0.5)] * 3


class TestLivelockFarFromZero:
    def test_transfers_started_at_1e5_complete(self, engine):
        # At t=1e5, rate × ulp(now) exceeds the 1e-9 MB completion
        # tolerance: without the livelock rule, a completion event can
        # finish nothing and re-arm at the same instant forever.
        links = [Link(engine, 500.0) for _ in range(200)]
        transfers = []

        def start_all() -> None:
            for k, link in enumerate(links):
                transfers.append(link.start_transfer(f"t{k}", 1.0 + 0.37 * k))

        engine.call_at(1e5, start_all)
        engine.run(max_events=10_000)
        assert engine.peek() is None
        assert all(t.done for t in transfers)
        for t in transfers:
            assert t.finish_time - t.start_time == pytest.approx(t.size_mb / 500.0, abs=1e-9)


class TestRepresentationSwitch:
    """Past ARRAY_FROM one-cap streams the MB left live in an array; the
    reads stay Python numbers and the link goes back to a list below
    LIST_BELOW."""

    def test_array_from_threshold_and_back(self, engine):
        link = Link(engine, 1000.0)
        ts = [link.start_transfer(f"t{i}", 1.0 + i) for i in range(link_module.ARRAY_FROM)]
        assert link._buf is not None
        engine.run()
        assert link._buf is None and link.active_count == 0
        assert [t.finish_time for t in ts] == sorted(t.finish_time for t in ts)

    def test_reads_are_python_numbers(self, engine):
        link = Link(engine, 1000.0)
        ts = [link.start_transfer(f"t{i}", 100, rate_cap_mbps=2) for i in range(300)]
        assert link._buf is not None
        # Before the first settle an integer size reads back unchanged.
        assert repr(ts[7].remaining_mb) == "100"
        assert repr(ts[7].rate_mbps) == "2"
        engine.run(until=1.0)
        link.start_transfer("late", 5.0, rate_cap_mbps=2)
        assert repr(ts[7].remaining_mb) == "98.0"
        assert type(link.bytes_moved_mb) is float
        link.cancel(ts[7])
        assert repr(ts[7].remaining_mb) == "98.0"

    def test_mixed_caps_fall_back_to_the_list(self, engine):
        link = Link(engine, 1000.0)
        for i in range(300):
            link.start_transfer(f"t{i}", 10.0)
        assert link._buf is not None
        capped = link.start_transfer("capped", 10.0, rate_cap_mbps=1.0)
        assert link._buf is None and capped.rate_mbps == 1.0
        link.start_transfer("capped2", 10.0, rate_cap_mbps=2.0)
        assert link._buf is None
        link.cancel(capped)
        assert link._buf is None
        link.cancel(link._transfers[-1])
        assert link._buf is not None
        engine.run()
        assert link.transfers_completed == 300
