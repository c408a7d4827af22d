"""Arrival streams routed through the policy registry, pinned to the bit.

An arrival stream is an ordinary ``ExperimentSpec`` workload: the
``hta``, ``hpa``, ``queue`` and ``predictive`` policies build the same
stack for it as for one workflow. Every literal below was captured from
the hand-assembled stream runner that this path replaced (the deleted
``repro.experiments.continuous`` module), so each case checks that the
registry-routed stream reproduces that runner's accounting, per-workflow
makespans, last finish, completions, requeues, the policy counters it
reported and its summary line exactly.
"""

from __future__ import annotations

import pytest

from repro.experiments import forecast_cmp
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.workloads.arrivals import periodic_arrivals

from tests.experiments.test_continuous import factory, stack

#: (policy, options, name) -> the pinned result of the four-instance
#: stream ``periodic_arrivals(factory, interval_s=200.0, count=4)`` on
#: ``test_continuous.stack()``.
STREAM_CASES = {
    "hta": (
        {},
        "HTA-stream",
        dict(
            accounting=(
                "AccountingSummary(runtime_s=780.0, accumulated_waste_core_s=2352.0, "
                "accumulated_shortage_core_s=936.0, mean_supply_cores=5.476923076923077, "
                "mean_in_use_cores=2.4615384615384617, peak_supply_cores=6.0, "
                "peak_shortage_cores=8.0)"
            ),
            workflow_makespans=[
                188.70423994513544, 120.03200000000004,
                120.03200000000004, 120.03199999999993,
            ],
            makespan_s=720.0319999999999,
            extras={"plans": 24.0},
            summary=(
                "HTA-stream: runtime 720s, waste 2352 core*s, shortage 936 core*s, "
                "utilization 44.9%, tasks 32/32 | 4 workflows, mean makespan 137s, "
                "160 tasks/h"
            ),
        ),
    ),
    "hpa": (
        {"target_cpu": 0.2},
        "HPA-20%-stream",
        dict(
            accounting=(
                "AccountingSummary(runtime_s=720.0, accumulated_waste_core_s=9249.0, "
                "accumulated_shortage_core_s=456.0, mean_supply_cores=15.5125, "
                "mean_in_use_cores=2.6666666666666665, peak_supply_cores=18.0, "
                "peak_shortage_cores=8.0)"
            ),
            workflow_makespans=[
                128.86365686458876, 60.03199999999998,
                60.03200000000004, 60.031999999999925,
            ],
            makespan_s=660.0319999999999,
            extras={"scale_events": 3.0},
            summary=(
                "HPA-20%-stream: runtime 660s, waste 9249 core*s, shortage 456 core*s, "
                "utilization 17.2%, tasks 32/32 | 4 workflows, mean makespan 77s, "
                "175 tasks/h"
            ),
        ),
    ),
    "queue": (
        {},
        "KEDA-stream",
        dict(
            accounting=(
                "AccountingSummary(runtime_s=720.0, accumulated_waste_core_s=4116.0, "
                "accumulated_shortage_core_s=456.0, mean_supply_cores=8.383333333333333, "
                "mean_in_use_cores=2.6666666666666665, peak_supply_cores=9.0, "
                "peak_shortage_cores=8.0)"
            ),
            workflow_makespans=[
                128.86365686458876, 60.03199999999998,
                60.03200000000004, 60.031999999999925,
            ],
            makespan_s=660.0319999999999,
            extras={"scale_events": 1.0, "pods_deleted": 0.0},
            summary=(
                "KEDA-stream: runtime 660s, waste 4116 core*s, shortage 456 core*s, "
                "utilization 31.8%, tasks 32/32 | 4 workflows, mean makespan 77s, "
                "175 tasks/h"
            ),
        ),
    ),
    "predictive": (
        {},
        "Predictive-stream",
        dict(
            accounting=(
                "AccountingSummary(runtime_s=720.0, accumulated_waste_core_s=3288.0, "
                "accumulated_shortage_core_s=542.0, mean_supply_cores=7.233333333333333, "
                "mean_in_use_cores=2.6666666666666665, peak_supply_cores=9.0, "
                "peak_shortage_cores=8.0)"
            ),
            workflow_makespans=[
                128.86365686458876, 79.10310012728473,
                82.00800000000004, 62.00800000000004,
            ],
            makespan_s=662.008,
            extras={"scale_events": 8.0, "decisions": 24.0, "drains": 3.0},
            summary=(
                "Predictive-stream: runtime 662s, waste 3288 core*s, shortage 542 core*s, "
                "utilization 36.9%, tasks 32/32 | 4 workflows, mean makespan 88s, "
                "174 tasks/h"
            ),
        ),
    ),
}

#: ``forecast_cmp.run(0)``: six 30-task bursts, four policies (the
#: predictive run carries a custom model selector).
FORECAST_CASES = {
    "HTA": dict(
        accounting=(
            "AccountingSummary(runtime_s=2340.0, accumulated_waste_core_s=13989.0, "
            "accumulated_shortage_core_s=7002.0, mean_supply_cores=12.90128205128205, "
            "mean_in_use_cores=6.923076923076923, peak_supply_cores=30.0, "
            "peak_shortage_cores=30.0)"
        ),
        workflow_makespans=[
            259.82956888024796, 180.048, 180.04799999999977,
            180.04799999999977, 180.04799999999977, 180.04800000000068,
        ],
        makespan_s=2280.0480000000007,
        extras={"plans": 52.0},
        summary=(
            "HTA: runtime 2280s, waste 13989 core*s, shortage 7002 core*s, "
            "utilization 53.7%, tasks 180/180 | 6 workflows, mean makespan 193s, "
            "284 tasks/h"
        ),
    ),
    "HTA-hybrid": dict(
        accounting=(
            "AccountingSummary(runtime_s=2220.0, accumulated_waste_core_s=18003.0, "
            "accumulated_shortage_core_s=5208.0, mean_supply_cores=15.406756756756756, "
            "mean_in_use_cores=7.297297297297297, peak_supply_cores=36.0, "
            "peak_shortage_cores=30.0)"
        ),
        workflow_makespans=[
            259.82956888024796, 107.096, 94.34591042811257,
            103.64512703627906, 112.94434364444533, 92.24356025261113,
        ],
        makespan_s=2192.243560252611,
        extras={"plans": 49.0},
        summary=(
            "HTA-hybrid: runtime 2192s, waste 18003 core*s, shortage 5208 core*s, "
            "utilization 47.4%, tasks 180/180 | 6 workflows, mean makespan 128s, "
            "296 tasks/h"
        ),
    ),
    "Predictive": dict(
        accounting=(
            "AccountingSummary(runtime_s=2220.0, accumulated_waste_core_s=24111.0, "
            "accumulated_shortage_core_s=4482.0, mean_supply_cores=18.15810810810811, "
            "mean_in_use_cores=7.297297297297297, peak_supply_cores=33.0, "
            "peak_shortage_cores=30.0)"
        ),
        workflow_makespans=[
            287.8014089780334, 99.30817497827047, 92.096,
            92.096, 90.11999999999989, 90.11999999999989,
        ],
        makespan_s=2190.12,
        extras={"scale_events": 21.0, "decisions": 74.0, "drains": 49.0},
        summary=(
            "Predictive: runtime 2190s, waste 24111 core*s, shortage 4482 core*s, "
            "utilization 40.2%, tasks 180/180 | 6 workflows, mean makespan 125s, "
            "296 tasks/h"
        ),
    ),
    "KEDA-queue": dict(
        accounting=(
            "AccountingSummary(runtime_s=2220.0, accumulated_waste_core_s=45573.0, "
            "accumulated_shortage_core_s=4296.0, mean_supply_cores=27.825675675675676, "
            "mean_in_use_cores=7.297297297297297, peak_supply_cores=30.0, "
            "peak_shortage_cores=30.0)"
        ),
        workflow_makespans=[
            287.8014089780334, 90.12, 90.11999999999989,
            90.11999999999989, 90.11999999999989, 90.11999999999989,
        ],
        makespan_s=2190.12,
        extras={"scale_events": 1.0, "pods_deleted": 0.0},
        summary=(
            "KEDA-queue: runtime 2190s, waste 45573 core*s, shortage 4296 core*s, "
            "utilization 26.2%, tasks 180/180 | 6 workflows, mean makespan 123s, "
            "296 tasks/h"
        ),
    ),
}


def assert_pinned(result, pinned, tasks):
    assert repr(result.accounting) == pinned["accounting"]
    assert result.workflow_makespans == pinned["workflow_makespans"]
    assert result.makespan_s == pinned["makespan_s"]
    assert result.tasks_total == result.tasks_completed == tasks
    assert result.tasks_requeued == 0
    assert {k: result.extras[k] for k in pinned["extras"]} == pinned["extras"]
    assert result.summary() == pinned["summary"]


@pytest.mark.parametrize("policy", sorted(STREAM_CASES))
def test_stream_matches_pinned_result(policy):
    options, name, pinned = STREAM_CASES[policy]
    result = run_experiment(
        ExperimentSpec(
            periodic_arrivals(factory, interval_s=200.0, count=4),
            policy=policy,
            name=name,
            stack=stack(),
            options=options,
        )
    )
    assert_pinned(result, pinned, tasks=32)


@pytest.fixture(scope="module")
def forecast_results():
    return forecast_cmp.run(0)


@pytest.mark.parametrize("name", list(FORECAST_CASES))
def test_forecast_comparison_matches_pinned_result(forecast_results, name):
    assert_pinned(forecast_results[name], FORECAST_CASES[name], tasks=180)
