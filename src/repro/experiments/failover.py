"""Failover — losing a dispatch shard for good must not strand its work.

Beyond the paper: the sharded data plane's robustness story. The
``shards`` experiment shows N masters behind a
:class:`~repro.wq.sharding.Foreman` scale dispatch throughput; this one
kills one of those masters **permanently** mid-flight and asks whether
the workload still finishes. Without intervention it cannot: the dead
shard's partition of the queue, its in-flight (unclaimed) set, and its
attached workers are all unreachable, so roughly 1/N of the remaining
work is stranded forever. The
:class:`~repro.wq.sharding.FailoverCoordinator` closes exactly that
hole — after a grace period separating a transient crash-with-restart
from permanent loss, it replays the dead shard's journal, re-homes the
queued and unclaimed work onto survivors (journaled as
FAILOVER_OUT/FAILOVER_IN so every shard's log replays to what it owes),
and re-attaches the stranded workers.

Three legs, all at seed 0 on a 4-shard plane with one permanent shard
loss mid-flight:

* **failover on** — every task completes, and the merged journal passes
  the failover-protocol invariant (no task resumed twice, OUT/IN
  balanced) plus the journal-replay check;
* **failover off** — the same run at the same sim-time horizon
  completes *strictly fewer* tasks (the stranded partition never
  drains), quantifying what the coordinator buys;
* **HTA fidelity** — the full cluster stack under ``sharded`` with a
  permanent mid-flight shard loss and failover on must make sizing
  decisions (pods created, peak nodes) within tolerance of the
  no-crash oracle: re-homed queue depth flows into the foreman's
  aggregate view, so the operator keeps sizing for the *real* backlog.

Usage::

    python -m repro.experiments failover            # full: 2000 tasks
    python -m repro.experiments failover --smoke    # CI: 600 tasks
    python -m repro.experiments failover --bench-out DIR

Writes ``BENCH_PERF.json`` to the output directory and exits non-zero
if any leg of the contract fails.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.runner import drive, run_experiment
from repro.experiments.shards import HtaFidelity, dispatch_plane, lognormal_bag
from repro.perf.scenarios import PerfScenario
from repro.sim.rng import RngRegistry
from repro.soak.invariants import check_failover_protocol, check_journal_replay
from repro.wq.sharding import FailoverConfig, TaskPartitioner
from repro.wq.task import Task

#: Repository root (src/repro/experiments/failover.py -> three parents up).
_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_OUT_DIR = _ROOT / "benchmarks" / "results" / "failover"

#: Cores per worker, in whole one-core tasks (the shards experiment's
#: footprint), so the fleet stays saturated until the tail.
CORES_PER_WORKER = 16

#: The contrast's fixed shard count and the (permanent) victim.
N_SHARDS = 4
VICTIM = 1

#: Sim seconds before the victim dies, and the failover grace after it.
CRASH_AT_S = 120.0
GRACE_S = 60.0

#: Wall-clock safety box around each dispatch-plane drive.
MAX_WALL_S = 120.0


@dataclass
class FailoverMeasurement:
    """One dispatch-plane drive (failover on or off)."""

    name: str
    failover: bool
    n_tasks: int
    completed: int
    sim_s: float
    wall_s: float
    failovers: int
    tasks_rehomed: int
    tasks_rebalanced: int
    workers_reattached: int
    protocol_violations: int
    replay_violations: int

    @property
    def completed_fraction(self) -> float:
        return self.completed / self.n_tasks if self.n_tasks else 0.0

    def row(self) -> Dict[str, object]:
        return {
            "scenario": self.name,
            "failover": self.failover,
            "n_tasks": self.n_tasks,
            "completed": self.completed,
            "completed_fraction": round(self.completed_fraction, 4),
            "sim_s": round(self.sim_s, 1),
            "wall_s": round(self.wall_s, 2),
            "failovers": self.failovers,
            "tasks_rehomed": self.tasks_rehomed,
            "tasks_rebalanced": self.tasks_rebalanced,
            "workers_reattached": self.workers_reattached,
            "protocol_violations": self.protocol_violations,
            "replay_violations": self.replay_violations,
        }


def run_shard_loss(
    *,
    failover: bool,
    n_tasks: int,
    n_workers: int = 8,
    execute_s: float = 30.0,
    seed: int = 0,
    horizon_s: float = 3000.0,
    max_wall_s: float = MAX_WALL_S,
) -> FailoverMeasurement:
    """Drive a 4-shard plane through one permanent shard loss.

    Builds the masters behind a foreman, attaches a directly-connected
    worker fleet round-robin, submits the bag, kills shard ``VICTIM``
    at :data:`CRASH_AT_S` with no restart, and runs to ``horizon_s``
    (or until every task completed). With ``failover`` a
    :class:`FailoverCoordinator` (grace :data:`GRACE_S`) re-homes the
    dead shard's work; without it the run shows what permanent loss
    costs a plane that only has the PR 3 restart-and-replay story."""
    foreman, coordinator = dispatch_plane(
        TaskPartitioner(N_SHARDS, seed=seed),
        n_workers=n_workers,
        cores_per_worker=CORES_PER_WORKER,
        failover=FailoverConfig(grace_s=GRACE_S) if failover else None,
    )
    engine = foreman.engine
    completed = 0

    def _done(_task: Task, _result) -> None:
        nonlocal completed
        completed += 1

    foreman.on_complete(_done)
    foreman.submit_many(
        lognormal_bag(
            "failover", n_tasks, execute_s=execute_s, rng=RngRegistry(seed + 5557)
        )
    )
    engine.call_at(CRASH_AT_S, foreman.crash_shard, VICTIM)
    started = time.perf_counter()
    drive(
        engine,
        lambda: completed >= n_tasks,
        until=horizon_s,
        chunk_s=50.0,
        deadline=started + max_wall_s,
    )
    wall = time.perf_counter() - started
    protocol = check_failover_protocol(foreman)
    replay = check_journal_replay(foreman) if completed >= n_tasks else []
    measurement = FailoverMeasurement(
        name=f"shard-loss-{'failover' if failover else 'bare'}",
        failover=failover,
        n_tasks=n_tasks,
        completed=completed,
        sim_s=engine.now,
        wall_s=wall,
        failovers=coordinator.failovers if coordinator else 0,
        tasks_rehomed=coordinator.tasks_rehomed if coordinator else 0,
        tasks_rebalanced=coordinator.tasks_rebalanced if coordinator else 0,
        workers_reattached=coordinator.workers_reattached if coordinator else 0,
        protocol_violations=len(protocol),
        replay_violations=len(replay),
    )
    if coordinator is not None:
        coordinator.stop()
    foreman.close()
    return measurement


def check_hta_fidelity(
    seed: int, *, n_tasks: int = 1_000, max_nodes: int = 100
) -> HtaFidelity:
    """Full-stack leg: ``sharded`` with a permanent mid-flight shard
    loss (failover on) vs the no-crash oracle. The crash lands at half
    the oracle's makespan, so it is mid-flight by construction."""
    oracle_scenario = PerfScenario(
        name="failover-fidelity-oracle",
        n_tasks=n_tasks,
        max_nodes=max_nodes,
        policy="sharded",
        execute_s=60.0,
        seed=seed,
        options={"shards": N_SHARDS},
    )
    oracle = run_experiment(oracle_scenario.build_spec())
    crash_scenario = PerfScenario(
        name="failover-fidelity-crash",
        n_tasks=n_tasks,
        max_nodes=max_nodes,
        policy="sharded",
        execute_s=60.0,
        seed=seed,
        options={
            "shards": N_SHARDS,
            "failover": True,
            "failover_grace_s": GRACE_S,
            "shard_crash_at_s": round(oracle.makespan_s * 0.5, 1),
            "shard_crash_index": VICTIM,
            "shard_crash_restart_s": None,
        },
    )
    crashed = run_experiment(crash_scenario.build_spec())
    if crashed.extras.get("shard_failovers", 0.0) < 1.0:
        raise SystemExit(
            "failover: the fidelity leg's shard crash never failed over "
            "(crash landed after the workload drained?)"
        )
    return HtaFidelity(
        pods_created_oracle=oracle.extras.get("pods_created", 0.0),
        pods_created_sharded=crashed.extras.get("pods_created", 0.0),
        nodes_peak_oracle=oracle.nodes_peak,
        nodes_peak_sharded=crashed.nodes_peak,
    )


@dataclass
class FailoverReport:
    """The contrast's collected measurements, rendered and serialized."""

    runs: List[FailoverMeasurement]
    fidelity: HtaFidelity
    smoke: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def with_failover(self) -> FailoverMeasurement:
        return next(m for m in self.runs if m.failover)

    @property
    def without_failover(self) -> FailoverMeasurement:
        return next(m for m in self.runs if not m.failover)

    @property
    def ok(self) -> bool:
        on, off = self.with_failover, self.without_failover
        return (
            on.completed >= on.n_tasks
            and off.completed < on.completed
            and on.protocol_violations == 0
            and on.replay_violations == 0
            and off.protocol_violations == 0
            and self.fidelity.ok
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "experiment": "failover",
            "smoke": self.smoke,
            "runs": {m.name: m.row() for m in self.runs},
            "hta_fidelity": self.fidelity.row(),
            "ok": self.ok,
            "notes": list(self.notes),
        }

    def table(self) -> str:
        header = (
            f"{'config':<22} {'failover':>8} {'done':>11} "
            f"{'rehomed':>8} {'rebal':>6} {'workers':>8} {'proto':>6}"
        )
        lines = [header, "-" * len(header)]
        for m in self.runs:
            lines.append(
                f"{m.name:<22} {'on' if m.failover else 'off':>8} "
                f"{m.completed:>6}/{m.n_tasks:<4} "
                f"{m.tasks_rehomed:>8} {m.tasks_rebalanced:>6} "
                f"{m.workers_reattached:>8} "
                f"{m.protocol_violations + m.replay_violations:>6}"
            )
        on, off = self.with_failover, self.without_failover
        lines.append("")
        lines.append(
            f"permanent loss of shard {VICTIM}/{N_SHARDS} at "
            f"t={CRASH_AT_S:.0f}s: failover completes "
            f"{on.completed}/{on.n_tasks}, bare plane strands "
            f"{on.completed - off.completed} task(s) "
            f"({off.completed}/{off.n_tasks} by the same horizon)"
        )
        f = self.fidelity
        lines.append(
            f"HTA fidelity vs no-crash oracle: pods_created "
            f"{f.pods_created_oracle:.0f} vs {f.pods_created_sharded:.0f}, "
            f"nodes_peak {f.nodes_peak_oracle} vs {f.nodes_peak_sharded} "
            f"(tolerance {f.tolerance:.0%}): {'OK' if f.ok else 'FAIL'}"
        )
        lines.extend(self.notes)
        return "\n".join(lines)


def main(
    seed: int = 0,
    *,
    smoke: bool = False,
    out_dir: Optional[str] = None,
    n_tasks: Optional[int] = None,
) -> str:
    """Run the shard-loss contrast; returns the rendered table.

    Full mode: a 2000-task bag and the 1000-task fidelity leg.
    Smoke mode: 600 tasks and a 300-task fidelity leg — the same
    contract, enforced either way.
    """
    if smoke:
        bag = n_tasks if n_tasks is not None else 600
        fidelity_tasks, fidelity_nodes = 300, 40
    else:
        bag = n_tasks if n_tasks is not None else 2_000
        fidelity_tasks, fidelity_nodes = 1_000, 100

    runs: List[FailoverMeasurement] = []
    for failover in (True, False):
        label = "on" if failover else "off"
        print(f"failover: driving the {bag}-task bag (failover {label})...")
        measurement = run_shard_loss(failover=failover, n_tasks=bag, seed=seed)
        runs.append(measurement)
        print(
            f"failover: {measurement.name}: "
            f"{measurement.completed}/{measurement.n_tasks} completed "
            f"by t={measurement.sim_s:.0f}s"
        )

    print("failover: checking HTA sizing fidelity vs the no-crash oracle...")
    fidelity = check_hta_fidelity(
        seed, n_tasks=fidelity_tasks, max_nodes=fidelity_nodes
    )

    report = FailoverReport(runs=runs, fidelity=fidelity, smoke=smoke)
    directory = Path(out_dir) if out_dir is not None else DEFAULT_OUT_DIR
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "BENCH_PERF.json", "w") as f:
        json.dump(report.to_json(), f, indent=2, sort_keys=True)
    out = report.table()
    print(out)
    print(f"\n[BENCH_PERF.json -> {directory / 'BENCH_PERF.json'}]")
    on, off = report.with_failover, report.without_failover
    if on.completed < on.n_tasks:
        raise SystemExit(
            f"failover: {on.n_tasks - on.completed} task(s) stranded "
            f"despite failover; see report above"
        )
    if off.completed >= on.completed:
        raise SystemExit(
            "failover: the bare plane matched the failover arm — the "
            "crash did not strand anything, so the contrast is void"
        )
    if on.protocol_violations or on.replay_violations or off.protocol_violations:
        raise SystemExit(
            "failover: journal protocol violations; see report above"
        )
    if not fidelity.ok:
        raise SystemExit(
            "failover: HTA sizing under shard loss diverged from the "
            "no-crash oracle beyond tolerance; see report above"
        )
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
