"""Bench: HTA vs HPA vs a KEDA-style queue scaler (beyond the paper).

The paper's baseline is CPU-reactive HPA; modern deployments would reach
for a queue-driven scaler (KEDA). This bench runs all three on the fig-10
multistage workflow and the fig-11 I/O-bound workload at full scale:

* the queue scaler fixes HPA's I/O blind spot (it watches backlog, not
  CPU) — I/O-bound runtimes land near HTA's;
* on the CPU-bound multistage workflow it is *no better than HPA on
  waste*: it counts tasks rather than resources, jumps straight to the
  replica cap, and its cooldown pins the pool there through the stage-2
  dip exactly like HPA's stabilization window;
* HTA wastes the least against both — resource-aware packing plus
  init-time-paced decisions, not just a better trigger metric.
"""

from __future__ import annotations

from benchmarks.conftest import run_once

from repro.experiments import fig10, fig11
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.metrics.cost import CostModel
from repro.metrics.summary import format_summary_table


def test_baselines_multistage(benchmark, capsys):
    def run_all():
        results = {
            "HPA(20% CPU)": fig10.run_hpa(0.20, 0),
            "HTA": fig10.run_hta(0),
            "KEDA-queue": run_experiment(
                ExperimentSpec(
                    fig10.workload(),
                    policy="queue",
                    stack=fig10.stack_config(0),
                    options={
                        "tasks_per_replica": 3.0,
                        "min_replicas": 3,
                        "max_replicas": 20,
                    },
                )
            ),
        }
        return results

    results = run_once(benchmark, run_all)
    model = CostModel()
    with capsys.disabled():
        print()
        print(
            format_summary_table(
                {k: r.accounting for k, r in results.items()},
                title="Multistage BLAST: HPA vs HTA vs KEDA-style queue scaler",
            )
        )
        for name, r in results.items():
            cost = model.cost_of(r, "n1-standard-4-reserved")
            print(f"  {name:<14} cloud cost: {cost}")

    total = sum(fig10.STAGES)
    assert all(r.tasks_completed == total for r in results.values())
    hta, keda, hpa = results["HTA"], results["KEDA-queue"], results["HPA(20% CPU)"]
    # The queue scaler is at best comparable to HPA on waste here: it
    # saturates the replica cap instantly and the cooldown pins it there
    # through the stage-2 dip, same pathology as HPA's stabilization.
    assert (
        keda.accounting.accumulated_waste_core_s
        > 0.6 * hpa.accounting.accumulated_waste_core_s
    )
    # It does finish no slower than HPA (no CPU-ramp lag).
    assert keda.makespan_s <= hpa.makespan_s * 1.1
    # HTA wastes the least against both baselines, by a wide margin.
    assert (
        hta.accounting.accumulated_waste_core_s
        < 0.5 * keda.accounting.accumulated_waste_core_s
    )
    assert (
        hta.accounting.accumulated_waste_core_s
        < 0.5 * hpa.accounting.accumulated_waste_core_s
    )
    # Node-hour *dollars* tell a subtler story than core-second waste:
    # HTA releases worker pods promptly, but the freed nodes idle through
    # the cluster autoscaler's 10-minute reclaim timeout before billing
    # stops, and HTA's longer runtime keeps the base pool alive longer —
    # so the 4-5x pod-level waste cut compresses to near-parity on the
    # bill. (Shortening the node idle timeout recovers the gap; see the
    # cost model docs.) Guard the observation, not a fairy tale:
    hta_cost = model.cost_of(hta, "n1-standard-4-reserved").total_usd
    hpa_cost = model.cost_of(hpa, "n1-standard-4-reserved").total_usd
    assert hta_cost < hpa_cost * 1.15


def test_baselines_io_bound(benchmark, capsys):
    def run_all():
        return {
            "HPA(20% CPU)": fig11.run_hpa(0.20, 0),
            "HTA": fig11.run_hta(0),
            "KEDA-queue": run_experiment(
                ExperimentSpec(
                    fig11.workload(),
                    policy="queue",
                    stack=fig11.stack_config(0),
                    options={
                        "tasks_per_replica": 3.0,
                        "min_replicas": 3,
                        "max_replicas": 20,
                    },
                )
            ),
        }

    results = run_once(benchmark, run_all)
    with capsys.disabled():
        print()
        print(
            format_summary_table(
                {k: r.accounting for k, r in results.items()},
                title="I/O-bound: HPA vs HTA vs KEDA-style queue scaler",
            )
        )

    assert all(r.tasks_completed == fig11.N_TASKS for r in results.values())
    hta, keda, hpa = results["HTA"], results["KEDA-queue"], results["HPA(20% CPU)"]
    # No CPU blind spot: the queue scaler finishes several times faster
    # than HPA, in HTA's ballpark.
    assert keda.makespan_s < 0.5 * hpa.makespan_s
    assert keda.makespan_s < 2.0 * hta.makespan_s
