"""Forecast comparison — recurring arrival bursts, four policies.

Beyond the paper: the facility scenario that motivates prediction. A
burst of identical jobs lands every few hundred seconds — think a
pipeline stage triggered by an upstream instrument — and every burst
arrives faster than a worker can cold-start, so a purely reactive policy
always eats one full resource-initialization cycle of shortage per burst.

Compared policies, all on the same substrate:

* **HTA** — reactive Algorithm 1 (provisioning for submitted work only);
* **HTA-hybrid** — Algorithm 1 with forecast arrivals injected as
  synthetic waiting tasks (``HtaConfig.forecast_arrivals``), so the plan
  covers predicted inflow too;
* **Predictive** — the :class:`~repro.forecast.scaler.PredictiveScaler`:
  pool sized from demand forecast one init cycle ahead, drain-not-delete
  on the way down;
* **KEDA-queue** — the queue-length baseline: reactive, and its shrink
  path deletes pods and holds a long cooldown.

Expected shape: the forecast-fed policies match the queue baseline's
makespan while wasting far less — they release capacity between bursts
(drains are free, the queue scaler's cooldown is not) without giving up
burst response.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    StackConfig,
    run_experiment,
)
from repro.hta.operator import HtaConfig
from repro.makeflow.dag import WorkflowGraph
from repro.metrics.summary import format_summary_table
from repro.workloads.arrivals import periodic_arrivals
from repro.workloads.synthetic import uniform_bag

#: Burst schedule: BURSTS bags of BURST_TASKS one-core jobs, one bag
#: every INTERVAL_S — each burst larger than the pool can absorb without
#: scaling, each gap longer than a cold start.
BURSTS = 6
BURST_TASKS = 30
INTERVAL_S = 420.0
EXECUTE_S = 90.0

MIN_NODES = 2
MAX_NODES = 12


def stack_config(seed: int = 0) -> StackConfig:
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,  # 3 allocatable cores/node
            min_nodes=MIN_NODES,
            max_nodes=MAX_NODES,
        ),
        seed=seed,
    )


def arrivals():
    def factory(i: int) -> WorkflowGraph:
        return WorkflowGraph(
            uniform_bag(BURST_TASKS, execute_s=EXECUTE_S, declared=True, category="burst")
        )

    return periodic_arrivals(factory, interval_s=INTERVAL_S, count=BURSTS)


def run_hta(seed: int = 0, *, hybrid: bool = False) -> ExperimentResult:
    config = HtaConfig(
        initial_workers=MIN_NODES,
        max_workers=MAX_NODES,
        min_workers=MIN_NODES,
        forecast_arrivals=hybrid,
    )
    return run_experiment(
        ExperimentSpec(
            arrivals(),
            policy="hta",
            name="HTA-hybrid" if hybrid else "HTA",
            stack=stack_config(seed),
            options={"hta_config": config},
        )
    )


def run_predictive(seed: int = 0) -> ExperimentResult:
    # The default pool plus an AR model whose order spans one arrival
    # period (420 s / 15 s sampling = 28 lags): the only model that can
    # learn the burst cycle and provision *before* each burst lands. The
    # selector routes to it purely on rolling error once it locks on.
    from repro.forecast.models import default_forecasters, ArLeastSquaresForecaster
    from repro.forecast.selector import OnlineModelSelector

    pool = default_forecasters() + [
        ArLeastSquaresForecaster(window=96, order=30, name="ar-period")
    ]
    return run_experiment(
        ExperimentSpec(
            arrivals(),
            policy="predictive",
            name="Predictive",
            stack=stack_config(seed),
            options={"selector": OnlineModelSelector(pool)},
        )
    )


def run_queue_scaler(seed: int = 0) -> ExperimentResult:
    return run_experiment(
        ExperimentSpec(
            arrivals(),
            policy="queue",
            name="KEDA-queue",
            stack=stack_config(seed),
            # One worker absorbs 3 one-core tasks.
            options={"tasks_per_replica": 3.0},
        )
    )


def run(seed: int = 0) -> Dict[str, ExperimentResult]:
    return {
        "HTA": run_hta(seed),
        "HTA-hybrid": run_hta(seed, hybrid=True),
        "Predictive": run_predictive(seed),
        "KEDA-queue": run_queue_scaler(seed),
    }


def report(results: Dict[str, ExperimentResult]) -> str:
    sections = []
    sections.append(
        f"Burst stream: {BURSTS} bursts x {BURST_TASKS} tasks "
        f"({EXECUTE_S:.0f}s each) every {INTERVAL_S:.0f}s, "
        f"{MIN_NODES}..{MAX_NODES} nodes"
    )
    sections.append(
        format_summary_table(
            {name: r.accounting for name, r in results.items()},
            title="Forecast comparison: accumulated waste / shortage per policy",
        )
    )
    lines = ["Stream statistics:"]
    for name, r in results.items():
        lines.append(
            f"  {name:<11} last finish {r.makespan_s:7.0f}s, "
            f"mean burst makespan {r.mean_workflow_makespan_s:6.0f}s, "
            f"throughput {r.throughput_tasks_per_hour:5.0f} tasks/h"
        )
    sections.append("\n".join(lines))
    keda = results["KEDA-queue"].accounting.accumulated_waste_core_s
    best_name = min(
        ("HTA-hybrid", "Predictive"),
        key=lambda n: results[n].accounting.accumulated_waste_core_s,
    )
    best = results[best_name].accounting.accumulated_waste_core_s
    if keda > 0:
        sections.append(
            f"Best forecast-fed policy ({best_name}) wastes "
            f"{best / keda:.0%} of the queue baseline's core*s."
        )
    return "\n\n".join(sections)


def main(seed: int = 0) -> str:
    out = report(run(seed))
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
