"""Tests for the seeded fault-schedule generator."""

from __future__ import annotations

import pytest

from repro.soak.schedule import (
    FAULT_KIND_WEIGHTS,
    FAULT_KINDS,
    FaultEvent,
    SoakScheduleConfig,
    armed,
    generate_schedule,
)

PARAM_RANGES = {
    "preemption_wave": {"count": (1.0, 3.0)},
    "partition": {"duration_s": (10.0, 180.0)},
    "master_crash": {"restart_delay_s": (30.0, 90.0)},
    "api_outage": {"duration_s": (60.0, 240.0)},
    "boot_failures": {"prob": (0.3, 0.9), "duration_s": (60.0, 240.0)},
    "pull_stall": {"factor": (2.0, 8.0), "duration_s": (60.0, 240.0)},
}


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        for seed in range(20):
            assert generate_schedule(seed) == generate_schedule(seed)

    def test_different_seeds_differ(self):
        schedules = {tuple(generate_schedule(s)) for s in range(10)}
        assert len(schedules) > 1

    def test_config_changes_schedule(self):
        tight = SoakScheduleConfig(horizon_s=200.0, start_after_s=100.0)
        assert generate_schedule(5, tight) != generate_schedule(5)


class TestShape:
    def test_counts_within_bounds(self):
        cfg = SoakScheduleConfig(min_events=4, max_events=7)
        for seed in range(30):
            assert 4 <= len(generate_schedule(seed, cfg)) <= 7

    def test_times_within_window_and_sorted(self):
        cfg = SoakScheduleConfig(horizon_s=500.0, start_after_s=120.0)
        for seed in range(30):
            events = generate_schedule(seed, cfg)
            assert all(120.0 <= e.at_s <= 500.0 for e in events)
            assert [e.at_s for e in events] == sorted(e.at_s for e in events)

    def test_only_known_kinds(self):
        for seed in range(30):
            assert all(e.kind in FAULT_KINDS for e in generate_schedule(seed))

    def test_all_kinds_eventually_sampled(self):
        seen = set()
        for seed in range(200):
            seen.update(e.kind for e in generate_schedule(seed))
        assert seen == set(FAULT_KIND_WEIGHTS)


class TestArms:
    def test_low_three_bits_arm_migrate_integrity_sharded(self):
        assert armed(0) == ()
        assert armed(1) == ("migrate",)
        assert armed(2) == ("integrity",)
        assert armed(4) == ("sharded",)
        assert armed(7) == ("migrate", "integrity", "sharded")
        assert armed(8 * 1234 + 6) == ("integrity", "sharded")

    def test_arms_share_the_base_seeds_strike_count(self):
        """The base seed ``seed // 8`` draws the strike count before the
        pool matters, so one base seed strikes equally often under
        every arm code."""
        for base in range(20):
            counts = {len(generate_schedule(8 * base + code)) for code in range(8)}
            assert len(counts) == 1, base


class TestBudgets:
    def test_control_plane_budgets_respected(self):
        for seed in range(100):
            events = generate_schedule(seed)
            kinds = [e.kind for e in events]
            assert kinds.count("master_crash") <= 1
            assert kinds.count("api_outage") <= 1

    def test_raised_budget_allows_more(self):
        cfg = SoakScheduleConfig(
            min_events=30, max_events=30, max_master_crashes=5, max_api_outages=5
        )
        crashes = max(
            [e.kind for e in generate_schedule(s, cfg)].count("master_crash")
            for s in range(20)
        )
        assert 1 < crashes <= 5


class TestParams:
    def test_param_values_in_documented_ranges(self):
        for seed in range(100):
            for event in generate_schedule(seed):
                for key, (lo, hi) in PARAM_RANGES.get(event.kind, {}).items():
                    assert lo <= event.param(key) <= hi, (event, key)

    def test_param_lookup_with_default(self):
        event = FaultEvent(at_s=1.0, kind="node_kill")
        assert event.param("duration_s", 42.0) == 42.0

    def test_str_is_readable(self):
        event = FaultEvent(at_s=90.0, kind="partition", params=(("duration_s", 60.0),))
        assert str(event) == "t=90s partition(duration_s=60)"


class TestConfigValidation:
    def test_horizon_must_exceed_start(self):
        with pytest.raises(ValueError):
            SoakScheduleConfig(horizon_s=90.0, start_after_s=90.0)

    def test_event_bounds_validated(self):
        with pytest.raises(ValueError):
            SoakScheduleConfig(min_events=0)
        with pytest.raises(ValueError):
            SoakScheduleConfig(min_events=5, max_events=3)
