"""Unit tests for Algorithm 1 (the resource estimation algorithm)."""

from __future__ import annotations

import pytest

from repro.cluster.resources import ResourceVector
from repro.hta.estimator import (
    EstimatorConfig,
    PendingWorker,
    ResourceEstimator,
    ScalePlan,
    SimulatedTask,
)

WORKER = ResourceVector(3, 14 * 1024, 90 * 1024)
TASK = ResourceVector(1, 2500, 2000)


def make_estimator(**overrides):
    return ResourceEstimator(WORKER, EstimatorConfig(**overrides))


def running(n, remaining_s):
    return [SimulatedTask(TASK, remaining_s) for _ in range(n)]


def waiting(n, runtime_s=60.0):
    return [SimulatedTask(TASK, runtime_s) for _ in range(n)]


class TestInputValidation:
    def test_non_positive_init_time_rejected(self):
        with pytest.raises(ValueError):
            make_estimator().estimate(0.0, [], [], 1, 0)

    def test_zero_worker_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResourceEstimator(ResourceVector.zero())

    def test_negative_remaining_rejected(self):
        with pytest.raises(ValueError):
            SimulatedTask(TASK, -1.0)


class TestHold:
    def test_empty_queue_no_idle_holds(self):
        est = make_estimator()
        # 3 busy workers, everything running, nothing waiting.
        plan = est.estimate(160.0, running(9, 300.0), [], 3, 0)
        assert plan.delta == 0
        assert plan.action == "hold"
        assert plan.next_action_s == est.config.default_cycle_s

    def test_queue_absorbed_by_completions_holds(self):
        est = make_estimator()
        # 9 running tasks finish at t=50 (< init time 160): the 9 waiting
        # tasks dispatch into the freed capacity during the cycle.
        plan = est.estimate(160.0, running(9, 50.0), waiting(9), 3, 0)
        assert plan.delta == 0


class TestScaleUp:
    def test_waiting_overflow_scales_up(self):
        est = make_estimator()
        # 3 workers fully busy past the cycle, 30 tasks waiting
        # → 30 - 0 dispatched → need ceil(30/3) = 10 workers.
        plan = est.estimate(160.0, running(9, 1000.0), waiting(30), 3, 0)
        assert plan.delta == 10
        assert plan.action == "scale-up"
        assert plan.next_action_s == 160.0

    def test_scale_up_accounts_for_in_cycle_completions(self):
        est = make_estimator()
        # 9 tasks finish at t=50, freeing 9 slots for 9 of the 12 waiting;
        # 3 remain → 1 worker.
        plan = est.estimate(160.0, running(9, 50.0), waiting(12), 3, 0)
        assert plan.delta == 1

    def test_max_workers_caps_scale_up(self):
        est = make_estimator()
        plan = est.estimate(160.0, running(9, 1000.0), waiting(300), 3, 0, max_workers=20)
        assert plan.delta == 17

    def test_pending_workers_reduce_request(self):
        est = make_estimator()
        pending = [PendingWorker(WORKER, 30.0) for _ in range(5)]
        # The 5 arriving workers host 15 of the 30 waiting tasks.
        plan = est.estimate(160.0, running(9, 1000.0), waiting(30), 3, 0, pending=pending)
        assert plan.delta == 5

    def test_pending_workers_count_against_quota(self):
        est = make_estimator()
        pending = [PendingWorker(WORKER, 30.0) for _ in range(5)]
        plan = est.estimate(
            160.0, running(9, 1000.0), waiting(300), 3, 0,
            pending=pending, max_workers=10,
        )
        assert plan.delta == 2  # 10 - 3 active - 5 pending

    def test_oversized_task_gets_one_dedicated_worker(self):
        est = make_estimator()
        monster = SimulatedTask(ResourceVector(64, 1024, 1024), 100.0)
        plan = est.estimate(160.0, [], [monster], 0, 0)
        assert plan.delta == 1

    def test_packing_mixes_task_sizes(self):
        est = make_estimator()
        big = SimulatedTask(ResourceVector(2, 1024, 1024), 100.0)
        small = SimulatedTask(ResourceVector(1, 1024, 1024), 100.0)
        # (2+1) fits one worker; 4 bigs + 4 smalls → 4 workers.
        plan = est.estimate(160.0, [], [big, small] * 4, 0, 0)
        assert plan.delta == 4


class TestScaleDown:
    def test_idle_workers_released_when_queue_empty(self):
        est = make_estimator()
        plan = est.estimate(160.0, running(3, 1000.0), [], 4, 3)
        # 4 workers, 3 tasks on one worker (est view: capacity-3 left);
        # 12-3=9 spare cores → 3 whole workers, 3 idle → release 3.
        assert plan.delta == -3
        assert plan.action == "scale-down"

    def test_scale_down_limited_by_idle_count(self):
        est = make_estimator()
        # Spare capacity equals 3 workers but only 1 worker is idle.
        plan = est.estimate(160.0, running(3, 1000.0), [], 4, 1)
        assert plan.delta == -1

    def test_scale_down_respects_min_workers(self):
        est = make_estimator()
        plan = est.estimate(160.0, [], [], 4, 4, min_workers=3)
        assert plan.delta == -1

    def test_literal_pseudocode_mode_never_scales_down_on_empty(self):
        est = make_estimator(scale_down_on_empty_queue=False)
        plan = est.estimate(160.0, [], [], 4, 4)
        assert plan.delta == 0

    def test_fragmented_capacity_with_waiting_tasks_scales_down_idle(self):
        est = make_estimator()
        # A waiting task too big for the spare fragments, spare >= one
        # worker, idle workers exist → pseudocode lines 22-24.
        big = SimulatedTask(ResourceVector(64, 1024, 1024), 100.0)
        plan = est.estimate(160.0, running(3, 1000.0), [big], 4, 3)
        assert plan.delta < 0
        # Next check when the longest-running task is predicted to end.
        assert plan.next_action_s == pytest.approx(1000.0)


class TestPlanMetadata:
    def test_waiting_after_reported(self):
        est = make_estimator()
        plan = est.estimate(160.0, running(9, 1000.0), waiting(5), 3, 0)
        assert plan.waiting_after == 5

    def test_min_cycle_floor_applied(self):
        est = make_estimator(min_cycle_s=5.0)
        plan = est.estimate(
            160.0, running(3, 0.5), [], 4, 3
        )
        assert plan.next_action_s >= 5.0

    def test_plan_action_labels(self):
        assert ScalePlan(1, 10).action == "scale-up"
        assert ScalePlan(-1, 10).action == "scale-down"
        assert ScalePlan(0, 10).action == "hold"


class TestDispatchHelper:
    def test_dispatch_is_first_fit_in_order(self):
        small = ResourceVector(1, 1000, 100)
        big = ResourceVector(3, 1000, 100)
        remaining, ava = ResourceEstimator._dispatch(
            [(big, 1), (small, 1)], ResourceVector(1, 14 * 1024, 90 * 1024)
        )
        assert remaining == [(big, 1)]
        assert ava.cores == pytest.approx(0.0)

    def test_dispatch_stops_at_zero_capacity(self):
        t = ResourceVector(1, 100, 100)
        remaining, ava = ResourceEstimator._dispatch([(t, 3)], ResourceVector.zero())
        assert sum(count for _, count in remaining) == 3
