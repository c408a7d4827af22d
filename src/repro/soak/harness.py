"""The chaos-soak harness: one seeded hostile run, checked at the end.

``run_soak(seed)`` assembles the full stack through the runner, as
every experiment does: an :class:`~repro.experiments.runner.ExperimentSpec`
for spot-aware ``hta`` on a cluster with a preemptible pool. The seed
chooses what else is armed (:func:`~repro.soak.schedule.armed`): bit 0
of ``seed % 8`` gives tasks checkpoints and the stack a migration
coordinator, bit 1 arms seeded result/checkpoint corruption,
verification and the health ledger, and bit 2 runs the dispatch plane
as :data:`SHARDS` shards behind a foreman with failover on (policy
``sharded``). Every random stream — schedule, stack, task bag — draws
from the base seed ``seed // 8``. It throws the seed's generated fault
schedule at the stack — node kills, evictions, preemption waves,
partitions, master crashes, API outages, boot failures, pull stalls,
and the armed features' own primitives — advances it with the runner's
:func:`~repro.experiments.runner.drive` to quiescence, and then runs
every invariant checker. The report carries the violations (if any) and
the seed *is* the reproduction recipe: ``run_soak(seed)`` again replays
the identical run.

Unlike :func:`repro.experiments.runner.run_experiment`, the soak's stop
condition tolerates task abandonment — under a sufficiently hostile
schedule abandoning a task is correct behaviour (bounded retries), and
the invariants check that it happens *consistently*, not that it never
happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.cluster.cloud import PreemptiblePoolConfig
from repro.cluster.cluster import ClusterConfig
from repro.experiments.runner import (
    FINISHED,
    ExperimentSpec,
    FaultProfile,
    StackConfig,
    _assembled,
    _Stack,
    drive,
)
from repro.hta.provisioner import SpotPolicy
from repro.sim.rng import RngRegistry
from repro.soak.invariants import (
    VersionProbe,
    Violation,
    check_accounting_aggregates,
    check_failover_protocol,
    check_integrity_protocol,
    check_journal_replay,
    check_migration_protocol,
    check_no_worker_leaks,
    check_scheduler_indexes,
    check_task_conservation,
    check_trace_consistency,
    check_version_monotonic,
)
from repro.soak.schedule import (
    FaultEvent,
    SoakScheduleConfig,
    armed,
    generate_schedule,
)
from repro.telemetry.session import TelemetryConfig
from repro.workloads.synthetic import uniform_bag
from repro.wq.faults import BLACK_HOLE_MODES, BlackHoleProfile
from repro.wq.health import HealthConfig
from repro.wq.migration import CheckpointSpec, MigrationConfig, MigrationCoordinator
from repro.wq.sharding import Foreman


#: Dispatch shards of a seed that arms ``sharded``.
SHARDS = 4


@dataclass(frozen=True, slots=True)
class SoakConfig:
    """One soak run's workload, substrate, and deadline."""

    #: Sized so the workload stays busy past the schedule's horizon —
    #: strikes that land on an idle, drained cluster test nothing.
    n_tasks: int = 120
    execute_s: float = 120.0
    runtime_cv: float = 0.3
    max_nodes: int = 16
    spot_max_nodes: int = 8
    spot_fraction: float = 0.5
    preemption_grace_s: float = 30.0
    max_retries: int = 8
    #: Hard deadline on reaching quiescence (violation when missed).
    quiescence_timeout_s: float = 8000.0
    #: Extra simulated time after quiescence for drains/reaping to land.
    drain_grace_s: float = 1200.0
    schedule: SoakScheduleConfig = field(default_factory=SoakScheduleConfig)
    #: Per-attempt corruption probabilities of a seed that arms
    #: ``integrity``.
    result_corruption_prob: float = 0.02
    checkpoint_corruption_prob: float = 0.05

    def smoke(self) -> "SoakConfig":
        """A shrunk copy for CI: fewer tasks, fewer strikes."""
        return replace(
            self,
            n_tasks=60,
            execute_s=120.0,
            max_nodes=10,
            spot_max_nodes=5,
            quiescence_timeout_s=6000.0,
            schedule=SoakScheduleConfig(
                horizon_s=450.0, start_after_s=120.0, min_events=3, max_events=6
            ),
        )


@dataclass
class SoakReport:
    """What one soak run found."""

    seed: int
    events: List[FaultEvent]
    violations: List[Violation]
    quiesced: bool
    stats: Dict[str, float] = field(default_factory=dict)
    #: SHA-256 of the master's transaction journal (canonical form) at
    #: the end of the run — the fixed-seed bit-fidelity oracle the perf
    #: subsystem checks optimizations against.
    journal_digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        arms = ", ".join(armed(self.seed))
        lines = [
            f"soak seed={self.seed}{f' [{arms}]' if arms else ''}: "
            f"{'OK' if self.ok else f'{len(self.violations)} VIOLATION(S)'} "
            f"({len(self.events)} strikes, "
            f"quiesced={'yes' if self.quiesced else 'NO'})"
        ]
        for event in self.events:
            lines.append(f"  strike {event}")
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]:g}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        if not self.ok:
            lines.append(
                f"  reproduce with: python -m repro.experiments soak --seed {self.seed}"
            )
        return "\n".join(lines)


def _apply_event(
    stack: _Stack,
    event: FaultEvent,
    migration: Optional[MigrationCoordinator] = None,
) -> None:
    """Translate one scheduled strike into a chaos-injector call."""
    chaos = stack.chaos
    assert chaos is not None
    if event.kind == "migrate":
        assert migration is not None, "migrate strike needs a coordinator"
        chaos.migrate_random_worker(stack.master, migration)
    elif event.kind == "corrupt":
        chaos.corrupt_random_result(stack.master)
    elif event.kind == "black_hole":
        chaos.black_hole_random_worker(
            stack.master,
            BlackHoleProfile(
                mode=BLACK_HOLE_MODES[int(event.param("mode", 0.0))],
                latency_s=event.param("latency_s", 1.0),
            ),
        )
    elif event.kind == "node_kill":
        chaos.kill_random_node()
    elif event.kind == "pod_eviction":
        chaos.evict_random_pod()
    elif event.kind == "preemption_wave":
        chaos.preempt_random_spot_nodes(int(event.param("count", 1)))
    elif event.kind == "partition":
        chaos.partition_random_worker(
            stack.master, duration_s=event.param("duration_s", 60.0)
        )
    elif event.kind == "master_crash":
        chaos.crash_master(
            stack.master, restart_delay_s=event.param("restart_delay_s", 60.0)
        )
    elif event.kind == "shard_crash":
        assert isinstance(stack.master, Foreman), "shard_crash needs a sharded plane"
        chaos.crash_random_shard(
            stack.master,
            restart_delay_s=(
                None
                if event.param("permanent", 0.0) >= 1.0
                else event.param("restart_delay_s", 60.0)
            ),
        )
    elif event.kind == "api_outage":
        chaos.begin_api_outage(duration_s=event.param("duration_s", 120.0))
    elif event.kind == "boot_failures":
        chaos.begin_boot_failures(
            event.param("prob", 0.5), duration_s=event.param("duration_s", 120.0)
        )
    elif event.kind == "pull_stall":
        chaos.begin_image_pull_stall(
            event.param("factor", 4.0), duration_s=event.param("duration_s", 120.0)
        )
    else:  # pragma: no cover — schedule generator and harness in lockstep
        raise ValueError(f"unknown fault kind {event.kind!r}")


def run_soak(seed: int, config: SoakConfig = SoakConfig()) -> SoakReport:
    """One seeded soak run; see the module docstring."""
    base, arms = seed // 8, armed(seed)
    events = generate_schedule(seed, config.schedule)
    fault_profile = FaultProfile(max_retries=config.max_retries)
    if "integrity" in arms:
        fault_profile = replace(
            fault_profile,
            result_corruption_prob=config.result_corruption_prob,
            checkpoint_corruption_prob=config.checkpoint_corruption_prob,
            health=HealthConfig(),
        )
    stack_cfg = StackConfig(
        cluster=ClusterConfig(
            max_nodes=config.max_nodes,
            preemptible=PreemptiblePoolConfig(
                max_nodes=config.spot_max_nodes,
                grace_period_s=config.preemption_grace_s,
            ),
        ),
        seed=base,
        faults=fault_profile,
    )
    tasks = uniform_bag(
        config.n_tasks,
        execute_s=config.execute_s,
        category="soak",
        rng=RngRegistry(base + 4099),
        runtime_cv=config.runtime_cv,
    )
    if "migrate" in arms:
        for task in tasks:
            task.checkpoint = CheckpointSpec()
    options: Dict[str, object] = {
        "spot_policy": SpotPolicy(config.spot_fraction),
        "spot_aware": True,
        "migration": MigrationConfig() if "migrate" in arms else None,
    }
    policy = "hta"
    if "sharded" in arms:
        # HTA over the runner's sharded plane; a FailoverCoordinator
        # rides along so shard_crash strikes (permanent ones included)
        # are survivable.
        policy = "sharded"
        options.update(shards=SHARDS, failover=True)
    spec = ExperimentSpec(tasks, policy, stack=stack_cfg, options=options)
    with _assembled(spec, TelemetryConfig(enabled=True)) as assembled:
        # The accountant stays unstarted: no check reads its series, and
        # sampling them would only cost wall time.
        stack, graph, harness, manager, _accountant = assembled
        operator = harness.submitter
        provisioner = operator.provisioner
        responder = operator.preemption
        migration = responder.migration
        failover = stack.failover
        engine = stack.engine
        master = stack.master
        api = stack.cluster.api
        probe = VersionProbe(api)
        index_violations: List[Violation] = []
        accounting_violations: List[Violation] = []

        def strike(event: FaultEvent) -> None:
            _apply_event(stack, event, migration)
            # Chaos mutates the cluster behind the controllers' backs;
            # the scheduler's indexes and the accounting aggregates must
            # have seen all of it. The first divergence of each is
            # enough to flag the run.
            if not index_violations:
                index_violations.extend(check_scheduler_indexes(api))
            if not accounting_violations:
                accounting_violations.extend(check_accounting_aggregates(stack))

        manager.start()
        for event in events:
            engine.call_at(event.at_s, strike, event)

        def resolved() -> int:
            done = sum(1 for t in master.done if t.speculation_of is None)
            return done + len(master.abandoned)

        quiesced = (
            drive(
                engine,
                lambda: resolved() >= len(graph.tasks) and master.all_done,
                until=config.quiescence_timeout_s,
                chunk_s=30.0,
            )
            == FINISHED
        )
        violations: List[Violation] = []
        if quiesced:
            # Abandonment keeps the manager's done signal from firing;
            # trigger clean-up explicitly, then give drains time to land.
            operator.notify_no_more_jobs()
            drive(engine, lambda: False, until=engine.now + config.drain_grace_s)
        else:
            violations.append(
                Violation(
                    "quiescence",
                    f"not quiescent by t={engine.now:.0f}s: "
                    f"{resolved()}/{len(graph.tasks)} tasks resolved, "
                    f"queue={len(master.queue)}, running={len(master.running)}, "
                    f"unclaimed={len(master._unclaimed)}",
                )
            )
            operator.stop()
            provisioner.stop()
        violations.extend(check_task_conservation(graph, master))
        if quiesced:
            violations.extend(
                check_no_worker_leaks(stack.runtime, provisioner, master)
            )
            violations.extend(check_journal_replay(master))
        violations.extend(check_migration_protocol(master))
        violations.extend(check_integrity_protocol(master))
        if failover is not None:
            violations.extend(check_failover_protocol(master))
        violations.extend(check_version_monotonic(probe))
        violations.extend(check_trace_consistency(master, stack.chaos, stack.tracer))
        violations.extend(index_violations or check_scheduler_indexes(api))
        violations.extend(
            accounting_violations or check_accounting_aggregates(stack)
        )
        probe.close()
        stats: Dict[str, float] = {
            "sim_time_s": engine.now,
            "tasks_done": float(sum(1 for t in master.done if t.speculation_of is None)),
            "tasks_abandoned": float(len(master.abandoned)),
            "tasks_requeued": float(master.tasks_requeued),
            "tasks_evacuated": float(master.tasks_evacuated),
            "partitions_detected": float(master.partitions_detected),
            "workers_declared_lost": float(master.workers_declared_lost),
            "master_crashes": float(master.crashes),
            "preemptions": float(stack.cluster.cloud.preemptions),
            "nodes_killed": float(stack.chaos.nodes_killed if stack.chaos else 0),
            "pods_killed": float(stack.chaos.pods_killed if stack.chaos else 0),
            "workers_evacuated": float(responder.workers_evacuated),
            "journal_records": float(len(master.journal)),
            "migrations_accepted": float(master.migrations_accepted),
            "migrations_stale": float(master.migrations_stale),
        }
        if migration is not None:
            stats["migrations_started"] = float(migration.migrations_started)
            stats["migrations_completed"] = float(migration.migrations_completed)
            stats["migration_fallbacks"] = float(migration.migration_fallbacks)
            stats["migrations_injected"] = float(
                stack.chaos.migrations_injected if stack.chaos else 0
            )
        if failover is not None:
            stats["shard_crashes"] = float(
                stack.chaos.shard_crashes if stack.chaos else 0
            )
            stats["shard_failovers"] = float(failover.failovers)
            stats["failovers_aborted"] = float(failover.failovers_aborted)
            stats["tasks_rehomed"] = float(failover.tasks_rehomed)
            stats["tasks_rebalanced"] = float(failover.tasks_rebalanced)
            stats["workers_reattached"] = float(failover.workers_reattached)
        if "integrity" in arms:
            stats["verify_fails"] = float(master.verify_fails)
            stats["checkpoint_verify_fails"] = float(
                master.checkpoint_verify_fails
            )
            stats["corrupted_completes"] = float(master.corrupted_completes)
            stats["quarantines"] = float(master.quarantines)
            stats["unquarantines"] = float(master.unquarantines)
            stats["tasks_poisoned"] = float(master.tasks_poisoned)
            stats["quarantined_rejected"] = float(master.quarantined_rejected)
            stats["corruptions_injected"] = float(
                stack.chaos.corruptions_injected if stack.chaos else 0
            )
            stats["black_holes_injected"] = float(
                stack.chaos.black_holes_injected if stack.chaos else 0
            )
        journal_digest = master.journal.digest()
    return SoakReport(
        seed=seed,
        events=events,
        violations=violations,
        quiesced=quiesced,
        stats=stats,
        journal_digest=journal_digest,
    )


def run_soak_batch(
    seeds: List[int], config: SoakConfig = SoakConfig()
) -> List[SoakReport]:
    """Run several seeds; returns every report (callers stop on first
    failure if they want fail-fast semantics)."""
    return [run_soak(seed, config) for seed in seeds]


def first_violation(reports: List[SoakReport]) -> Optional[SoakReport]:
    for report in reports:
        if not report.ok:
            return report
    return None
