"""Bench: preemptible capacity + the chaos soak (beyond the paper).

Regenerates the preemption experiment at full scale — a mixed
on-demand/spot fleet hit by a reclamation wave, spot-aware HTA vs
vanilla — and asserts the contract the spot machinery is sold on:
strictly higher goodput at no worse cost, on the validated seed. A
second benchmark runs a full-size chaos soak and asserts zero invariant
violations.
"""

from __future__ import annotations

from benchmarks.conftest import run_once

from repro.experiments import preemption
from repro.metrics.cost import CostModel
from repro.soak import SoakConfig, run_soak

SEED = 0


def test_preemption_deterministic():
    """Two same-seed runs must agree on every headline metric."""
    first = preemption.run(SEED, smoke=True)
    second = preemption.run(SEED, smoke=True)
    for name in first:
        assert first[name].makespan_s == second[name].makespan_s, name
        assert first[name].extras == second[name].extras, name


def test_preemption_full(benchmark):
    results = run_once(benchmark, preemption.run, SEED)
    aware = results["hta-spot-aware"]
    vanilla = results["hta-vanilla"]

    # The wave actually fired against both variants, and only the aware
    # variant consumed the notices through the responder.
    for result in (aware, vanilla):
        assert result.extras["preemptions"] >= preemption.WAVE_SIZE
        assert result.tasks_completed == preemption.N_TASKS
    assert aware.extras["workers_evacuated"] > 0
    assert "workers_evacuated" not in vanilla.extras

    # The contract: strictly higher goodput at no worse cost.
    aware_rate = preemption.goodput_rate(aware)
    vanilla_rate = preemption.goodput_rate(vanilla)
    assert aware_rate > vanilla_rate
    cost_model = CostModel()
    aware_cost = cost_model.cost_of_mixed(aware, preemption.MACHINE_TYPE).total_usd
    vanilla_cost = cost_model.cost_of_mixed(vanilla, preemption.MACHINE_TYPE).total_usd
    assert aware_cost <= vanilla_cost + 1e-9

    # Both fleets actually bought spot capacity (the discount is real).
    for result in (aware, vanilla):
        mixed = cost_model.cost_of_mixed(result, preemption.MACHINE_TYPE)
        assert mixed.spot.node_hours > 0
        assert mixed.spot.hourly_price < mixed.on_demand.hourly_price


def test_soak_full(benchmark):
    """A full-size soak run holds every invariant (seed 8: base seed 1,
    nothing armed)."""
    report = run_once(benchmark, run_soak, 8, SoakConfig())
    assert report.quiesced, report.describe()
    assert report.ok, report.describe()
    assert report.stats["tasks_done"] + report.stats["tasks_abandoned"] == 120
    assert len(report.events) >= SoakConfig().schedule.min_events
