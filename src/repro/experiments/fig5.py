"""Fig 5 — the supply/demand relationship over initialization cycles.

The paper's fig 5 is an illustrative plot: resource demand moves
continuously while supply can only change at the boundaries of
resource-initialization cycles, so a well-informed autoscaler plans for
the *end* of the current cycle. We regenerate it from a real run: a small
HTA experiment whose demand rises and falls, with supply/demand sampled
every second and the staircase rendered at cycle resolution.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.experiments.report import ascii_chart
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    StackConfig,
    run_experiment,
)
from repro.workloads.synthetic import staged_pipeline


def run(seed: int = 0) -> ExperimentResult:
    """A wide→narrow→wide pipeline: demand swings across stages."""
    graph = staged_pipeline([40, 6, 30], execute_s=120.0, declared=True)
    cfg = StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,
            min_nodes=2,
            max_nodes=16,
            node_idle_timeout_s=120.0,
        ),
        seed=seed,
    )
    return run_experiment(
        ExperimentSpec(graph, policy="hta", name="fig5-hta", stack=cfg)
    )


def cycle_staircase(result: ExperimentResult, cycle_s: float = 160.0) -> List[Tuple[float, float, float]]:
    """(t, supply, demand) at initialization-cycle boundaries."""
    t0, t1 = result.accountant.window()
    points = []
    t = t0
    while t <= t1:
        points.append(
            (
                t,
                result.series("supply").value_at(t),
                result.series("demand").value_at(t),
            )
        )
        t += cycle_s
    return points


def report(result: ExperimentResult) -> str:
    t0, t1 = result.accountant.window()
    chart = ascii_chart(
        {
            "supply": result.series("supply"),
            "demand": result.series("demand"),
            "in-use": result.series("in_use"),
        },
        t0,
        t1,
        title="Fig 5: resource supply vs demand over initialization cycles",
    )
    stairs = cycle_staircase(result)
    lines = [chart, "", "Cycle boundaries (t, supply, demand):"]
    lines.extend(f"  t={t:7.0f}s  supply={s:6.1f}  demand={d:6.1f}" for t, s, d in stairs)
    lines.append("")
    lines.append(result.summary())
    return "\n".join(lines)


def main(seed: int = 0) -> str:
    out = report(run(seed))
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
