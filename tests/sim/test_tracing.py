"""Unit tests for step series, metric recorder, and sampler."""

from __future__ import annotations

import pytest

from repro.sim.tracing import MetricRecorder, Sampler, StepSeries


class TestStepSeries:
    def test_initial_value_before_first_change(self):
        s = StepSeries("x", initial=3.0)
        assert s.value_at(0.0) == 3.0
        assert s.value_at(100.0) == 3.0

    def test_right_continuous_semantics(self):
        s = StepSeries()
        s.record(5.0, 10.0)
        assert s.value_at(4.999) == 0.0
        assert s.value_at(5.0) == 10.0
        assert s.value_at(5.001) == 10.0

    def test_non_decreasing_time_enforced(self):
        s = StepSeries("x")
        s.record(5.0, 1.0)
        with pytest.raises(ValueError):
            s.record(4.0, 2.0)

    def test_same_time_update_supersedes(self):
        s = StepSeries()
        s.record(5.0, 1.0)
        s.record(5.0, 9.0)
        assert s.value_at(5.0) == 9.0
        assert len(s) == 1

    def test_unchanged_value_not_stored(self):
        s = StepSeries()
        s.record(1.0, 4.0)
        s.record(2.0, 4.0)
        assert len(s) == 1

    def test_last_value_and_time(self):
        s = StepSeries(initial=7.0)
        assert s.last_value == 7.0
        assert s.last_time is None
        s.record(2.0, 1.0)
        assert s.last_value == 1.0
        assert s.last_time == 2.0

    def test_integral_of_constant(self):
        s = StepSeries(initial=2.0)
        assert s.integrate(0.0, 10.0) == pytest.approx(20.0)

    def test_integral_across_changes(self):
        s = StepSeries()
        s.record(0.0, 1.0)
        s.record(4.0, 3.0)
        s.record(6.0, 0.0)
        # 1*4 + 3*2 + 0*4 = 10 over [0, 10]
        assert s.integrate(0.0, 10.0) == pytest.approx(10.0)

    def test_integral_partial_window(self):
        s = StepSeries()
        s.record(0.0, 2.0)
        s.record(10.0, 4.0)
        assert s.integrate(5.0, 15.0) == pytest.approx(2.0 * 5 + 4.0 * 5)

    def test_integral_empty_window(self):
        s = StepSeries(initial=5.0)
        assert s.integrate(3.0, 3.0) == 0.0

    def test_integral_reversed_window_raises(self):
        s = StepSeries()
        with pytest.raises(ValueError):
            s.integrate(5.0, 2.0)

    def test_mean_is_time_weighted(self):
        s = StepSeries()
        s.record(0.0, 0.0)
        s.record(9.0, 10.0)
        # 9s at 0 then 1s at 10 → mean 1.0 over [0,10]
        assert s.mean(0.0, 10.0) == pytest.approx(1.0)

    def test_maximum_over_window(self):
        s = StepSeries()
        s.record(0.0, 1.0)
        s.record(5.0, 9.0)
        s.record(6.0, 2.0)
        assert s.maximum(0.0, 10.0) == 9.0
        assert s.maximum(6.5, 10.0) == 2.0

    def test_resample_grid(self):
        s = StepSeries()
        s.record(0.0, 1.0)
        s.record(5.0, 2.0)
        ts, vs = s.resample(0.0, 10.0, 2.5)
        assert ts == [0.0, 2.5, 5.0, 7.5, 10.0]
        assert vs == [1.0, 1.0, 2.0, 2.0, 2.0]

    def test_resample_requires_positive_dt(self):
        with pytest.raises(ValueError):
            StepSeries().resample(0, 1, 0)


class TestMetricRecorder:
    def test_set_records_at_engine_time(self, engine):
        rec = MetricRecorder(engine)
        engine.call_in(4.0, rec.set, "pods", 3.0)
        engine.run()
        assert rec.series["pods"].value_at(4.0) == 3.0

    def test_inc_dec_counters(self, engine):
        rec = MetricRecorder(engine)
        assert rec.inc("n") == 1.0
        assert rec.inc("n", 2.0) == 3.0
        assert rec.dec("n") == 2.0
        assert rec.value("n") == 2.0

    def test_value_of_unknown_series_is_zero(self, engine):
        assert MetricRecorder(engine).value("nope") == 0.0

    def test_integral_helper(self, engine):
        rec = MetricRecorder(engine)
        rec.set("x", 5.0)
        engine.call_in(10.0, lambda: None)
        engine.run()
        assert rec.integral("x", 0.0, 10.0) == pytest.approx(50.0)

    def test_names(self, engine):
        rec = MetricRecorder(engine)
        rec.set("a", 1)
        rec.set("b", 2)
        assert set(rec.names()) == {"a", "b"}


class TestSampler:
    def test_samples_on_cadence(self, engine):
        state = {"v": 0.0}
        sampler = Sampler(engine, period=1.0)
        sampler.add_gauge("g", lambda: state["v"])
        sampler.start()
        engine.call_in(2.5, lambda: state.__setitem__("v", 7.0))
        engine.run(until=5.0)
        series = sampler.series["g"]
        assert series.value_at(2.0) == 0.0
        assert series.value_at(3.0) == 7.0

    def test_stop_halts_sampling(self, engine):
        state = {"v": 0.0}
        sampler = Sampler(engine, period=1.0)
        sampler.add_gauge("g", lambda: state["v"])
        sampler.start()
        engine.run(until=2.0)
        sampler.stop()
        state["v"] = 99.0
        engine.run(until=10.0)
        assert sampler.series["g"].value_at(10.0) == 0.0

    def test_sample_now_forces_a_sample(self, engine):
        state = {"v": 5.0}
        sampler = Sampler(engine, period=100.0)
        sampler.add_gauge("g", lambda: state["v"])
        sampler.sample_now()
        assert sampler.series["g"].value_at(0.0) == 5.0

    def test_start_is_idempotent(self, engine):
        calls = []
        sampler = Sampler(engine, period=1.0)
        sampler.add_gauge("g", lambda: calls.append(1) or 0.0)
        sampler.start()
        sampler.start()
        engine.run(until=1.0)
        assert len(calls) == 2  # t=0 and t=1, not doubled
