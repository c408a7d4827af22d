"""DispatchCore extraction: config surface and accounting.

The master was split into a pure queue/run-table/retry state machine
(:class:`~repro.wq.dispatch.DispatchCore`, configured by a frozen
:class:`~repro.wq.dispatch.DispatchConfig`) and a session/connection
shell (:class:`~repro.wq.master.Master`). These tests pin the refactor's
contract: the config surface constructs and validates without warnings,
and the one folded accounting rule (billable cores) matches what the
historical inline copies charged.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cluster.resources import ResourceVector
from repro.wq.dispatch import DispatchConfig, DispatchCore
from repro.wq.estimator import ConservativeEstimator
from repro.wq.master import Master
from repro.wq.task import Task, TaskState
from repro.wq.worker import Worker

FOOT = ResourceVector(1, 512, 128)
WIDE = ResourceVector(2, 512, 128)
CAP = ResourceVector(4, 4096, 4096)


def make_task(execute_s=10.0, footprint=FOOT, declared=FOOT):
    return Task("c", execute_s=execute_s, footprint=footprint, declared=declared)


class TestConstructorStyles:
    def test_config_style_is_warning_free(self, engine, link):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Master(engine, link, config=DispatchConfig(max_retries=2))
            Master(engine, link)

    def test_config_validates(self):
        with pytest.raises(ValueError):
            DispatchConfig(max_retries=-1)

    def test_master_is_a_dispatch_core(self, master):
        assert isinstance(master, DispatchCore)
        assert master.config == DispatchConfig()

    def test_core_is_exported_from_the_package_root(self):
        import repro

        assert repro.DispatchCore is DispatchCore
        assert repro.DispatchConfig is DispatchConfig


class TestBillableCores:
    """Satellite regression: the per-attempt core bill used to be
    recomputed inline at every waste charge; it is now the single
    :meth:`DispatchCore._billable_cores` rule."""

    def test_footprint_capped_by_allocation(self, master):
        task = make_task(footprint=WIDE, declared=None)
        assert master._billable_cores(task) == 2.0  # no allocation yet
        task.allocation = FOOT
        assert master._billable_cores(task) == 1.0  # min(footprint, alloc)
        task.allocation = CAP
        assert master._billable_cores(task) == 2.0  # alloc wider than use

    def test_whole_worker_probe_bills_the_footprint_not_the_grant(
        self, engine, link
    ):
        # Conservative placement grants the whole 4-core worker, but the
        # task truly uses 1 core: waste is billed at the footprint, not
        # the reservation — the direction the inline copies could drift.
        master = Master(engine, link, estimator=ConservativeEstimator())
        worker = Worker(engine, master, "w1", CAP, connect_latency=1.0)
        task = make_task(execute_s=100.0, declared=None)
        master.submit(task)
        engine.run(until=11.0)
        assert task.state is TaskState.RUNNING
        assert task.allocation == CAP  # whole-worker grant
        elapsed = engine.now - task.start_time
        expected = elapsed * master._billable_cores(task)
        master.evacuate_worker(worker)
        assert master.wasted_core_s == pytest.approx(expected)
        assert master.wasted_core_s == pytest.approx(elapsed * FOOT.cores)
