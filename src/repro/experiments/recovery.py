"""Recovery — HTA under a master crash and an API-server outage.

Beyond the paper: the paper's control plane never fails. This experiment
kills the Work Queue master mid-makespan and takes the API server down
for a window earlier in the run, then compares two restart strategies
against the same-seed fault-free twin:

* **journal** — the restarted master replays its transaction journal:
  completed tasks are never re-executed, category statistics and retry
  budgets are reconstructed, and surviving workers reconnect and have
  their in-flight runs adopted;
* **cold** — the restart forgets everything but the submitted task set
  and re-runs the workload from scratch (what a master without a
  persistent volume would do).

During the API outage the informer goes stale and the HTA operator drops
into degraded mode: scale-down frozen, conservative queue-length sizing,
last-known-good init-time estimate. When the server returns, the
informer's relist-and-resync synthesizes the missed watch events.

Crash/outage timings default to fractions of the fault-free makespan so
both land mid-run at any scale; CLI flags override them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4_RESERVED
from repro.cluster.resources import ResourceVector
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    FaultProfile,
    StackConfig,
    run_experiment,
)
from repro.metrics.recovery import RecoverySummary, format_recovery_table
from repro.sim.rng import RngRegistry
from repro.workloads.synthetic import uniform_bag

#: (category, count, mean execute_s, runtime cv, footprint). Two
#: categories so journal replay has non-trivial category statistics to
#: reconstruct; no runtime jitter in "reduce" keeps the twins easy to
#: eyeball in traces.
SPEC = (
    ("sim", 48, 90.0, 0.5, ResourceVector(1, 1024, 1024)),
    ("reduce", 16, 180.0, 0.0, ResourceVector(2, 2048, 1024)),
)
SMOKE_SPEC = (
    ("sim", 12, 90.0, 0.5, ResourceVector(1, 1024, 1024)),
    ("reduce", 4, 180.0, 0.0, ResourceVector(2, 2048, 1024)),
)

MIN_NODES = 2
MAX_NODES = 10

#: Where the faults land, as fractions of the fault-free makespan. A
#: watch-stream drop is deliberately NOT part of the default profile:
#: the scheduler and pod runtime watch Pods without a resync path, so a
#: drop during boot stalls provisioning until the pending-pod timeout
#: fires and swamps the crash-recovery signal this experiment isolates.
#: The drop injector is exercised at unit level instead
#: (tests/cluster/test_api_outage.py::TestWatchDrop).
OUTAGE_AT_FRAC = 0.20
OUTAGE_DURATION_FRAC = 0.15
CRASH_AT_FRAC = 0.55

STRATEGIES = ("journal", "cold")


def stack_config(
    seed: int = 0, *, faults: Optional[FaultProfile] = None, smoke: bool = False
) -> StackConfig:
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4_RESERVED,  # 3 allocatable cores/node
            min_nodes=MIN_NODES,
            max_nodes=MAX_NODES if not smoke else 6,
        ),
        seed=seed,
        faults=faults,
    )


def workload(smoke: bool = False, seed: int = 0):
    """The same task bag for every strategy and the fault-free twin."""
    rng = RngRegistry(seed + 104729)
    tasks = []
    for category, count, execute_s, cv, footprint in (
        SMOKE_SPEC if smoke else SPEC
    ):
        tasks.extend(
            uniform_bag(
                count,
                execute_s=execute_s,
                footprint=footprint,
                declared=False,
                category=category,
                rng=rng if cv > 0 else None,
                runtime_cv=cv,
            )
        )
    return tasks


def fault_profile(
    baseline_makespan_s: float,
    *,
    journal: bool,
    crash_at_s: Optional[float] = None,
    outage_at_s: Optional[float] = None,
    outage_duration_s: Optional[float] = None,
    restart_delay_s: float = 60.0,
) -> FaultProfile:
    """Control-plane-only faults, timed off the fault-free makespan.

    Speculation is disabled so every re-executed task is attributable to
    the crash, not to straggler chasing.
    """
    m = baseline_makespan_s
    return FaultProfile(
        speculation=None,
        master_crash_at_s=crash_at_s if crash_at_s is not None else CRASH_AT_FRAC * m,
        master_restart_delay_s=restart_delay_s,
        journal_replay=journal,
        api_outage_at_s=(
            outage_at_s if outage_at_s is not None else OUTAGE_AT_FRAC * m
        ),
        api_outage_duration_s=(
            outage_duration_s
            if outage_duration_s is not None
            else OUTAGE_DURATION_FRAC * m
        ),
    )


def _summarize(
    strategy: str, faulty: ExperimentResult, baseline: ExperimentResult
) -> RecoverySummary:
    ex = faulty.extras
    return RecoverySummary(
        strategy=strategy,
        makespan_s=faulty.makespan_s,
        baseline_makespan_s=baseline.makespan_s,
        tasks_rerun=int(ex.get("tasks_rerun", 0.0)),
        duplicate_results=int(ex.get("duplicate_results", 0.0)),
        recovery_latency_s=ex.get("recovery_latency_s", 0.0),
        master_crashes=int(ex.get("master_crashes", 0.0)),
        api_outages=int(ex.get("api_outages", 0.0)),
        dropped_watch_events=int(ex.get("dropped_watch_events", 0.0)),
        degraded_cycles=int(ex.get("degraded_cycles", 0.0)),
        scale_downs_frozen=int(ex.get("scale_downs_frozen", 0.0)),
        informer_resyncs=int(ex.get("informer_resyncs", 0.0)),
        tasks_completed=faulty.tasks_completed,
        tasks_total=faulty.tasks_total,
        wasted_core_s=ex.get("wasted_core_s", 0.0),
    )


def run(
    seed: int = 0,
    *,
    smoke: bool = False,
    crash_at_s: Optional[float] = None,
    outage_at_s: Optional[float] = None,
    outage_duration_s: Optional[float] = None,
    restart_delay_s: float = 60.0,
) -> Dict[str, Tuple[ExperimentResult, ExperimentResult, RecoverySummary]]:
    """Per strategy: (faulty result, fault-free twin, summary)."""
    baseline = run_experiment(
        ExperimentSpec(
            workload(smoke, seed),
            policy="hta",
            name="HTA-baseline",
            stack=stack_config(seed, faults=None, smoke=smoke),
        )
    )
    out: Dict[str, Tuple[ExperimentResult, ExperimentResult, RecoverySummary]] = {}
    for strategy in STRATEGIES:
        profile = fault_profile(
            baseline.makespan_s,
            journal=strategy == "journal",
            crash_at_s=crash_at_s,
            outage_at_s=outage_at_s,
            outage_duration_s=outage_duration_s,
            restart_delay_s=restart_delay_s,
        )
        faulty = run_experiment(
            ExperimentSpec(
                workload(smoke, seed),
                policy="hta",
                name=f"HTA-{strategy}",
                stack=stack_config(seed, faults=profile, smoke=smoke),
            )
        )
        out[strategy] = (faulty, baseline, _summarize(strategy, faulty, baseline))
    return out


def report(
    results: Dict[str, Tuple[ExperimentResult, ExperimentResult, RecoverySummary]],
    *,
    smoke: bool = False,
) -> str:
    spec = SMOKE_SPEC if smoke else SPEC
    total = sum(count for _, count, _, _, _ in spec)
    _, baseline, first = next(iter(results.values()))
    sections = [
        f"Workload: {total} tasks in {len(spec)} categories, "
        f"{MIN_NODES}..{6 if smoke else MAX_NODES} nodes; fault-free HTA "
        f"makespan {baseline.makespan_s:.0f}s. API outage at "
        f"~{OUTAGE_AT_FRAC:.0%} of makespan for ~{OUTAGE_DURATION_FRAC:.0%}, "
        f"master crash at ~{CRASH_AT_FRAC:.0%}."
    ]
    sections.append(format_recovery_table([s for _, _, s in results.values()]))
    lines = ["Recovery detail:"]
    for strategy, (faulty, _baseline, s) in results.items():
        lines.append(
            f"  {strategy:<8} re-ran {s.tasks_rerun} completed tasks, "
            f"suppressed {s.duplicate_results} duplicate results, first "
            f"completion {s.recovery_latency_s:.0f}s after the crash; "
            f"{s.degraded_cycles} degraded operator cycles "
            f"({s.scale_downs_frozen} scale-downs frozen), "
            f"{s.dropped_watch_events} watch events dropped, "
            f"{s.informer_resyncs} informer resyncs, "
            f"requeued {faulty.tasks_requeued}"
        )
    sections.append("\n".join(lines))
    journal = results.get("journal")
    cold = results.get("cold")
    if journal is not None and cold is not None:
        js, cs = journal[2], cold[2]
        sections.append(
            "Journal replay re-ran "
            f"{js.tasks_rerun} tasks vs {cs.tasks_rerun} under a cold "
            f"restart; makespan degradation {js.makespan_degradation:.1%} "
            f"vs {cs.makespan_degradation:.1%}."
        )
    return "\n\n".join(sections)


def main(
    seed: int = 0,
    *,
    smoke: bool = False,
    crash_at_s: Optional[float] = None,
    outage_at_s: Optional[float] = None,
    outage_duration_s: Optional[float] = None,
    restart_delay_s: float = 60.0,
) -> str:
    out = report(
        run(
            seed,
            smoke=smoke,
            crash_at_s=crash_at_s,
            outage_at_s=outage_at_s,
            outage_duration_s=outage_duration_s,
            restart_delay_s=restart_delay_s,
        ),
        smoke=smoke,
    )
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
