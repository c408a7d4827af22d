"""Property-based tests for the kernel data structures.

Invariants of :class:`StepSeries` (exact integration) and the engine's
event ordering, under arbitrary inputs.
"""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from repro.sim.engine import Engine
from repro.sim.tracing import StepSeries

# Monotone non-decreasing time points with values.
changes_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    min_size=0,
    max_size=40,
).map(lambda pairs: sorted(pairs, key=lambda p: p[0]))


def build_series(changes, initial=0.0) -> StepSeries:
    s = StepSeries("prop", initial=initial)
    for t, v in changes:
        s.record(t, v)
    return s


class TestStepSeriesProperties:
    @given(changes=changes_strategy)
    def test_integral_additivity(self, changes):
        """∫[a,c] = ∫[a,b] + ∫[b,c] for any split point."""
        s = build_series(changes)
        a, b, c = 0.0, 5000.0, 10000.0
        whole = s.integrate(a, c)
        split = s.integrate(a, b) + s.integrate(b, c)
        assert math.isclose(whole, split, rel_tol=1e-9, abs_tol=1e-6)

    @given(changes=changes_strategy)
    def test_integral_bounded_by_extremes(self, changes):
        s = build_series(changes)
        t0, t1 = 0.0, 10000.0
        values = [s.value_at(t0)] + [v for t, v in changes if t0 <= t <= t1]
        lo, hi = min(values), max(values)
        integral = s.integrate(t0, t1)
        width = t1 - t0
        assert lo * width - 1e-6 <= integral <= hi * width + 1e-6

    @given(changes=changes_strategy)
    def test_mean_within_range(self, changes):
        s = build_series(changes)
        values = [s.value_at(0.0)] + [v for _, v in changes]
        mean = s.mean(0.0, 10000.0)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(changes=changes_strategy)
    def test_value_at_matches_last_change_before(self, changes):
        s = build_series(changes)
        for t, _ in changes:
            expected = [v for ct, v in changes if ct <= t]
            if expected:
                assert s.value_at(t) == expected[-1]

    @given(changes=changes_strategy, dt=st.floats(min_value=0.5, max_value=500))
    def test_resample_points_agree_with_value_at(self, changes, dt):
        s = build_series(changes)
        ts, vs = s.resample(0.0, 1000.0, dt)
        for t, v in zip(ts, vs):
            assert v == s.value_at(t)

    @given(changes=changes_strategy)
    def test_maximum_is_attained(self, changes):
        s = build_series(changes, initial=0.0)
        peak = s.maximum(0.0, 10000.0)
        candidates = [s.value_at(0.0)] + [v for _, v in changes]
        assert peak in candidates


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_events_always_fire_in_time_order(self, delays):
        engine = Engine()
        fired = []
        for d in delays:
            engine.call_in(d, lambda d=d: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        horizon=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_run_until_never_fires_beyond_horizon(self, delays, horizon):
        engine = Engine()
        fired = []
        for d in delays:
            engine.call_in(d, lambda: fired.append(engine.now))
        engine.run(until=horizon)
        assert all(t <= horizon for t in fired)
        assert engine.now >= horizon or not delays
