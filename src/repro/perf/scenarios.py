"""The named scaling ladder the macro-benchmark sweeps.

Each rung multiplies both sides of the paper's workload model — task
count and node count — by 10x, and every rung runs under each of the
three head-to-head policies from the figure harnesses (``hta``, the
paper's operator; ``hpa``, the Kubernetes baseline; ``predictive``, the
forecasting variant), resolved through the same
:data:`repro.experiments.runner.POLICIES` registry the experiment CLI
uses. A scenario is pure configuration: :meth:`PerfScenario.build_spec`
yields the :class:`~repro.experiments.runner.ExperimentSpec` the bench
driver executes, so anything runnable by ``run_experiment`` is
benchmarkable by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.cluster import ClusterConfig
from repro.experiments.runner import ExperimentSpec, FaultProfile, StackConfig
from repro.sim.rng import RngRegistry
from repro.workloads.synthetic import uniform_bag

#: (tag, n_tasks, max_nodes, execute_s) per ladder rung. Task runtimes
#: are sized so each rung's ideal makespan stays in the few-hundred
#: sim-second range — big enough to exercise steady state, small enough
#: that the sweep measures simulator speed rather than workload length.
RUNGS: Tuple[Tuple[str, int, int, float], ...] = (
    ("1k-100", 1_000, 100, 60.0),
    ("10k-1k", 10_000, 1_000, 120.0),
    ("100k-10k", 100_000, 10_000, 240.0),
)

#: The policy registry keys every rung runs under.
POLICY_KEYS: Tuple[str, ...] = ("hta", "hpa", "predictive")


@dataclass(frozen=True, slots=True)
class PerfScenario:
    """One named macro-benchmark configuration."""

    name: str
    n_tasks: int
    max_nodes: int
    policy: str
    execute_s: float
    runtime_cv: float = 0.25
    seed: int = 42
    #: Hard wall on simulated time (generous; the bench driver's wall
    #: budget is the binding limit for slow configurations).
    max_sim_time_s: float = 200_000.0
    #: Coarser accounting on the big rungs keeps the sampler itself off
    #: the profile (1 Hz x 10k-node gauges would dominate).
    accounting_period_s: float = 1.0
    options: Dict[str, object] = field(default_factory=dict)

    def build_spec(self) -> ExperimentSpec:
        """Materialize the workload and wrap it in an ExperimentSpec."""
        tasks = uniform_bag(
            self.n_tasks,
            execute_s=self.execute_s,
            category="perf",
            rng=RngRegistry(self.seed + 7919),
            runtime_cv=self.runtime_cv,
        )
        stack = StackConfig(
            cluster=ClusterConfig(max_nodes=self.max_nodes),
            seed=self.seed,
            max_sim_time_s=self.max_sim_time_s,
            accounting_period_s=self.accounting_period_s,
            faults=FaultProfile(),
        )
        return ExperimentSpec(
            workload=tasks,
            policy=self.policy,
            name=self.name,
            stack=stack,
            seed=self.seed,
            options=dict(self.options),
        )


def ladder_scenarios() -> List[PerfScenario]:
    """The full ladder: every rung under every policy."""
    scenarios: List[PerfScenario] = []
    for tag, n_tasks, max_nodes, execute_s in RUNGS:
        for policy in POLICY_KEYS:
            scenarios.append(
                PerfScenario(
                    name=f"ladder-{tag}-{policy}",
                    n_tasks=n_tasks,
                    max_nodes=max_nodes,
                    policy=policy,
                    execute_s=execute_s,
                    # The top rung samples accounting at 5 s: the gauges
                    # are O(1) after the Master indexing work, but the 1 Hz
                    # cadence still costs events linear in sim time.
                    accounting_period_s=5.0 if n_tasks >= 100_000 else 1.0,
                )
            )
    return scenarios


def sharded_scenarios() -> List[PerfScenario]:
    """The sharded-data-plane rung: the top ladder workload under the
    ``sharded`` policy at 4 shards. One rung (not a full sweep) keeps
    the ladder affordable; the ``shards`` experiment owns the 1-vs-4
    scaling contrast on the million-task workload."""
    tag, n_tasks, max_nodes, execute_s = RUNGS[-1]
    return [
        PerfScenario(
            name=f"ladder-{tag}-sharded4",
            n_tasks=n_tasks,
            max_nodes=max_nodes,
            policy="sharded",
            execute_s=execute_s,
            accounting_period_s=5.0,
            options={"shards": 4},
        )
    ]


#: Materialized once; ``scenario_by_name`` and the CLI index into this.
LADDER: List[PerfScenario] = ladder_scenarios() + sharded_scenarios()

#: The CI smoke rung: smallest workload, the paper's own policy.
SMOKE_SCENARIO: str = "ladder-1k-100-hta"


def scenario_by_name(name: str) -> PerfScenario:
    for scenario in LADDER:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in LADDER)
    raise KeyError(f"unknown perf scenario {name!r}; known: {known}")


def largest_scenario(policy: str = "hta") -> PerfScenario:
    """The top rung for ``policy`` — the ISSUE's >=10x target config."""
    tag = RUNGS[-1][0]
    return scenario_by_name(f"ladder-{tag}-{policy}")
