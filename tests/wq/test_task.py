"""Unit tests for tasks and file specs."""

from __future__ import annotations

import itertools

import pytest

from repro.cluster.resources import ResourceVector
from repro.wq.task import FileSpec, Task, TaskState

FOOT = ResourceVector(1, 512, 256)


class TestFileSpec:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FileSpec("f", -1.0)

    def test_cacheable_flag(self):
        assert FileSpec("db", 1400, cacheable=True).cacheable
        assert not FileSpec("q", 7).cacheable


#: Components around validation's 1e-9 float-drift epsilon.
EDGES = [-2e-9, -1e-9, -0.0, 0.0, 1e-9, 2e-9, 1.0, float("nan")]


class TestTaskConstruction:
    @pytest.mark.parametrize("declared", [None, ResourceVector(1e-9, 0.0, 1.0)])
    def test_validation_matches_the_vector_predicates(self, declared):
        """The unrolled footprint and declaration checks accept exactly
        what ``is_nonnegative``, ``is_zero`` and ``fits_in`` accept."""
        for c, m, d in itertools.product(EDGES, repeat=3):
            footprint = ResourceVector(c, m, d)
            valid = (
                footprint.is_nonnegative()
                and not footprint.is_zero()
                and (declared is None or footprint.fits_in(declared))
            )
            try:
                Task("c", execute_s=1, footprint=footprint, declared=declared)
            except ValueError:
                assert not valid, footprint
            else:
                assert valid, footprint

    def test_ids_unique_and_increasing(self):
        a = Task("c", execute_s=1, footprint=FOOT)
        b = Task("c", execute_s=1, footprint=FOOT)
        assert b.id > a.id

    def test_negative_execute_rejected(self):
        with pytest.raises(ValueError):
            Task("c", execute_s=-1, footprint=FOOT)

    def test_cpu_fraction_bounds(self):
        with pytest.raises(ValueError):
            Task("c", execute_s=1, footprint=FOOT, cpu_fraction=1.5)
        with pytest.raises(ValueError):
            Task("c", execute_s=1, footprint=FOOT, cpu_fraction=-0.1)

    def test_zero_footprint_rejected(self):
        with pytest.raises(ValueError):
            Task("c", execute_s=1, footprint=ResourceVector.zero())

    def test_declaration_must_cover_footprint(self):
        with pytest.raises(ValueError):
            Task(
                "c",
                execute_s=1,
                footprint=ResourceVector(2, 512, 0),
                declared=ResourceVector(1, 512, 0),
            )

    def test_default_command_is_descriptive(self):
        t = Task("align", execute_s=1, footprint=FOOT)
        assert "align" in t.command

    def test_initial_state(self):
        t = Task("c", execute_s=1, footprint=FOOT)
        assert t.state is TaskState.WAITING
        assert t.attempts == 0
        assert t.result is None


class TestSizes:
    def test_input_bytes_total(self):
        t = Task(
            "c",
            execute_s=1,
            footprint=FOOT,
            inputs=(FileSpec("db", 1400, cacheable=True), FileSpec("q", 7)),
        )
        assert t.input_bytes_mb() == pytest.approx(1407.0)

    def test_input_bytes_cached_excludes_cacheable(self):
        t = Task(
            "c",
            execute_s=1,
            footprint=FOOT,
            inputs=(FileSpec("db", 1400, cacheable=True), FileSpec("q", 7)),
        )
        assert t.input_bytes_mb(cached=True) == pytest.approx(7.0)

    def test_output_bytes(self):
        t = Task("c", execute_s=1, footprint=FOOT, outputs=(FileSpec("o", 0.6),))
        assert t.output_bytes_mb() == pytest.approx(0.6)


class TestCpuModel:
    def test_no_cpu_unless_running(self):
        t = Task("c", execute_s=1, footprint=FOOT)
        assert t.current_cpu_cores() == 0.0

    def test_cpu_is_footprint_times_fraction(self):
        t = Task("c", execute_s=1, footprint=FOOT, cpu_fraction=0.15)
        t.state = TaskState.RUNNING
        t.allocation = ResourceVector(3, 1024, 1024)
        assert t.current_cpu_cores() == pytest.approx(0.15)

    def test_cpu_clamped_to_allocation(self):
        t = Task("c", execute_s=1, footprint=ResourceVector(4, 512, 0))
        t.state = TaskState.RUNNING
        t.allocation = ResourceVector(2, 1024, 1024)
        assert t.current_cpu_cores() == pytest.approx(2.0)


class TestRetry:
    def test_reset_for_retry_clears_run_state(self):
        t = Task("c", execute_s=1, footprint=FOOT)
        t.state = TaskState.RUNNING
        t.dispatch_time = 5.0
        t.start_time = 6.0
        t.allocation = FOOT
        t.reset_for_retry()
        assert t.state is TaskState.WAITING
        assert t.dispatch_time is None
        assert t.start_time is None
        assert t.allocation is None
