"""Unit tests for named RNG streams."""

from __future__ import annotations

import numpy as np

from repro.sim.rng import RngRegistry, derive_seed


class TestDerivation:
    def test_same_name_same_seed(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_different_names_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_master_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestStreams:
    def test_stream_is_cached(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_streams_independent_of_creation_order(self):
        reg1 = RngRegistry(7)
        a_first = reg1.stream("a").random(5)

        reg2 = RngRegistry(7)
        reg2.stream("b").random(100)  # consume another stream first
        a_second = reg2.stream("a").random(5)
        assert np.allclose(a_first, a_second)

    def test_replay_is_bit_identical(self):
        draws1 = [RngRegistry(3).normal("lat", 100, 5) for _ in range(1)]
        draws2 = [RngRegistry(3).normal("lat", 100, 5) for _ in range(1)]
        assert draws1 == draws2

    def test_names_reports_created_streams(self):
        reg = RngRegistry(0)
        reg.stream("one")
        reg.stream("two")
        assert set(reg.names()) == {"one", "two"}


class TestConvenienceDraws:
    def test_normal_zero_std_returns_mean(self):
        assert RngRegistry(0).normal("s", 42.0, 0.0) == 42.0

    def test_normal_floor_clips(self):
        reg = RngRegistry(0)
        values = [reg.normal("s", 0.0, 10.0, floor=5.0) for _ in range(50)]
        assert all(v >= 5.0 for v in values)

    def test_uniform_within_bounds(self):
        reg = RngRegistry(0)
        values = [reg.uniform("u", 2.0, 3.0) for _ in range(100)]
        assert all(2.0 <= v <= 3.0 for v in values)

    def test_lognormal_zero_cv_returns_mean(self):
        assert RngRegistry(0).lognormal_around("l", 50.0, 0.0) == 50.0

    def test_lognormal_mean_approximately_correct(self):
        reg = RngRegistry(0)
        values = [reg.lognormal_around("l", 100.0, 0.1) for _ in range(4000)]
        assert abs(np.mean(values) - 100.0) < 2.0

    def test_lognormal_strictly_positive(self):
        reg = RngRegistry(0)
        values = [reg.lognormal_around("l", 10.0, 1.0) for _ in range(200)]
        assert all(v > 0 for v in values)


class TestFork:
    def test_fork_streams_differ_from_parent(self):
        parent = RngRegistry(9)
        child = parent.fork("replica-1")
        assert parent.stream("x").random() != child.stream("x").random()

    def test_fork_is_deterministic(self):
        a = RngRegistry(9).fork("r").normal("s", 0, 1)
        b = RngRegistry(9).fork("r").normal("s", 0, 1)
        assert a == b

    def test_distinct_forks_differ(self):
        reg = RngRegistry(9)
        assert reg.fork("a").master_seed != reg.fork("b").master_seed
