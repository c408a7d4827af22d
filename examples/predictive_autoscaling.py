#!/usr/bin/env python3
"""Predictive autoscaling: provision *before* the burst lands.

A facility where a burst of identical jobs arrives on a fixed cadence —
an upstream instrument dumping a batch every 7 minutes — and every burst
arrives faster than a worker can cold-start. Reactive policies pay one
full resource-initialization cycle of shortage per burst; the
:class:`~repro.forecast.scaler.PredictiveScaler` samples demand, keeps a
pool of competing forecasters scored by rolling error, and sizes the
worker pool for the predicted demand envelope one init cycle ahead.

The forecaster pool includes an AR model whose order spans one arrival
period, so it can *learn the burst cycle*: watch the online selector
switch to it once its rolling error undercuts the reactive models.

    python examples/predictive_autoscaling.py
"""

from repro.experiments.forecast_cmp import (
    BURSTS,
    BURST_TASKS,
    EXECUTE_S,
    INTERVAL_S,
    arrivals,
    stack_config,
)
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.forecast.models import ArLeastSquaresForecaster, default_forecasters
from repro.forecast.selector import OnlineModelSelector


def main() -> None:
    print(
        f"Burst stream: {BURSTS} bursts x {BURST_TASKS} tasks "
        f"({EXECUTE_S:.0f}s each), one burst every {INTERVAL_S:.0f}s.\n"
    )

    # Default pool (naive / EWMA / Holt) plus a period-spanning AR:
    # 420 s period / 15 s sampling = 28 lags, so order 30 sees one full
    # cycle and can predict the next burst before it arrives.
    pool = default_forecasters() + [
        ArLeastSquaresForecaster(window=96, order=30, name="ar-period")
    ]
    selector = OnlineModelSelector(pool)

    print("Running the stream under the PredictiveScaler ...")
    predictive = run_experiment(
        ExperimentSpec(
            arrivals(),
            policy="predictive",
            name="Predictive",
            stack=stack_config(0),
            options={"selector": selector},
        )
    )
    print("Running the same stream under the KEDA-style queue scaler ...")
    keda = run_experiment(
        ExperimentSpec(
            arrivals(),
            policy="queue",
            name="KEDA-queue",
            stack=stack_config(0),
            options={"tasks_per_replica": 3.0},
        )
    )

    print()
    for name, res in (("Predictive", predictive), ("KEDA-queue", keda)):
        print(f"{name}:")
        print(f"  {res.summary()}")

    print()
    print("Forecaster pool after the run (rolling MAE, times selected):")
    for f in pool:
        picks = selector.selections.get(f.name, 0)
        mae = f.rolling_mae()
        mae_s = f"{mae:8.2f}" if mae != float("inf") else "     n/a"
        print(f"  {f.name:<12} mae {mae_s}   selected {picks:4d}x")

    p_acc = predictive.accounting
    k_acc = keda.accounting
    print()
    print(
        f"Waste: predictive {p_acc.accumulated_waste_core_s:.0f} core*s "
        f"vs queue baseline {k_acc.accumulated_waste_core_s:.0f} core*s "
        f"({p_acc.accumulated_waste_core_s / k_acc.accumulated_waste_core_s:.0%}) "
        f"at last finish {predictive.makespan_s:.0f}s vs "
        f"{keda.makespan_s:.0f}s."
    )
    print(
        "The queue scaler's cooldown pins the pool at the burst peak "
        "between bursts; the predictive pool drains it (drains are free) "
        "and re-provisions ahead of the next burst."
    )


if __name__ == "__main__":
    main()
