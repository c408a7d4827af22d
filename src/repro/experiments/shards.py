"""Shards — the sharded data plane's scaling contrast and HTA fidelity.

Beyond the paper: measures the dispatch plane itself. The ``sharded``
policy splits the workflow across N masters behind a
:class:`~repro.wq.sharding.Foreman`. A master's dispatch pass merges
the heads of its per-signature queue buckets, so one pass costs
O(placed + signatures), not O(queue): a million queued tasks of one
signature cost a pass no more than ten do. Splitting the backlog N ways
therefore buys no dispatch throughput in this single-process
simulator; sharding's value here is availability (see the
``failover`` experiment), not speed.

The throughput leg measures exactly that: a ~1M-task synthetic bag
submitted through a foreman at 1 shard and at 4 shards (both behind a
foreman, isolating the partitioning effect from the aggregation tier's
own overhead), a fixed directly-attached worker fleet, a warmup past
worker connect and the initial capacity fill, then a wall-boxed
steady-state window counting **dispatch events per wall-second** —
journal ``dispatch``/``migrate_in`` records, the state machine's unit
of work — in total and per shard. The 4-vs-1 ratio is reported, not
enforced: one master keeps up (two full runs on a 2-core x86-64 VM
measured 0.92x and 1.05x, at 2,900-4,900 dispatch events/s for one
shard).

The fidelity leg checks *upward* instead: the same small workload run
through the full cluster stack under plain ``hta`` and under
``sharded`` at 4 shards must produce HTA sizing decisions (pods
created, peak nodes) within a fixed tolerance — the foreman's
aggregated queue view is what the operator sizes from, and sharding
must not distort it. (The perf ladder's ``ladder-100k-10k-sharded4``
rung covers the full-stack sharded configuration under the regression
gate.)

Usage::

    python -m repro.experiments shards            # full: 1M tasks, 1 vs 4
    python -m repro.experiments shards --smoke    # CI: 100k tasks, 1 vs 2
    python -m repro.experiments shards --bench-out DIR

Writes ``BENCH_PERF.json`` (same spirit as the perf sweep's report,
with per-shard throughput folded in) to the output directory. Both
modes fail only on the HTA-tolerance check.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cluster.resources import ResourceVector
from repro.experiments.runner import DRAINED, drive, run_experiment
from repro.perf.scenarios import PerfScenario
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wq.dispatch import DispatchConfig
from repro.wq.estimator import DeclaredResourceEstimator
from repro.wq.link import Link
from repro.wq.master import Master
from repro.wq.sharding import FailoverConfig, FailoverCoordinator, Foreman
from repro.wq.task import Task
from repro.wq.worker import Worker

#: Repository root (src/repro/experiments/shards.py -> three parents up).
_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_OUT_DIR = _ROOT / "benchmarks" / "results" / "shards"

#: Journal operations that count as dispatch-plane work: every task
#: handed to a worker, whether fresh (``dispatch``) or resuming banked
#: checkpoint progress after a cross-shard transfer (``migrate_in``).
DISPATCH_OPS = ("dispatch", "migrate_in")

#: HTA sizing decisions under the foreman's aggregated view must stay
#: within this relative tolerance of the single-master oracle.
HTA_TOLERANCE = 0.25

#: One task's true/declared resources; the fleet is sized in whole
#: workers of ``CORES_PER_WORKER`` so the bag keeps every core busy.
FOOT = ResourceVector(cores=1, memory_mb=512, disk_mb=128)
CORES_PER_WORKER = 64


@dataclass
class ShardMeasurement:
    """One shard-count configuration's steady-state window."""

    name: str
    n_shards: int
    n_tasks: int
    wall_s: float
    sim_s: float
    engine_events: int
    dispatch_events: int
    per_shard_dispatch: List[int]
    tasks_completed: int

    @property
    def dispatch_events_per_sec(self) -> float:
        return self.dispatch_events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def per_shard_events_per_sec(self) -> List[float]:
        if self.wall_s <= 0:
            return [0.0 for _ in self.per_shard_dispatch]
        return [n / self.wall_s for n in self.per_shard_dispatch]

    def row(self) -> Dict[str, object]:
        return {
            "scenario": self.name,
            "policy": "sharded",
            "n_shards": self.n_shards,
            "n_tasks": self.n_tasks,
            "wall_s": round(self.wall_s, 2),
            "sim_s": round(self.sim_s, 1),
            "events": self.engine_events,
            "dispatch_events": self.dispatch_events,
            "dispatch_events_per_sec": round(self.dispatch_events_per_sec, 1),
            "per_shard_dispatch": list(self.per_shard_dispatch),
            "per_shard_events_per_sec": [
                round(v, 1) for v in self.per_shard_events_per_sec
            ],
            "tasks_completed": self.tasks_completed,
        }


def lognormal_bag(
    category: str, n_tasks: int, *, execute_s: float, rng: RngRegistry
) -> List[Task]:
    """A bag of independent CPU tasks with lognormal runtime spread.

    Built inline rather than via :func:`uniform_bag` so tasks carry no
    input/output files: file transfers serialize on the shared master
    link, which would add a shard-independent cost to the window the
    experiment wants to attribute to the dispatch plane alone."""
    return [
        Task(
            category,
            execute_s=rng.lognormal_around(f"{category}.exec", execute_s, 0.25),
            footprint=FOOT,
            declared=FOOT,
        )
        for _ in range(n_tasks)
    ]


def dispatch_plane(
    n_shards: int,
    *,
    seed: int = 0,
    n_workers: int,
    cores_per_worker: int,
    failover: Optional[FailoverConfig] = None,
) -> Tuple[Foreman, Optional[FailoverCoordinator]]:
    """A bare dispatch plane, no cluster: ``n_shards`` masters behind a
    foreman seeded with ``seed``, on one shared link, a failover
    coordinator when ``failover`` is set, then ``n_workers`` directly
    connected workers of ``cores_per_worker`` cores, attached
    round-robin. The foreman's ``engine`` drives it."""
    engine = Engine()
    link = Link(engine, 10_000.0)
    config = DispatchConfig()
    shards = [
        Master(
            engine,
            link,
            config=config,
            estimator=DeclaredResourceEstimator(),
            name=f"shard-{i}",
        )
        for i in range(n_shards)
    ]
    foreman = Foreman(engine, shards, seed=seed)
    coordinator = (
        None if failover is None else FailoverCoordinator(engine, foreman, failover)
    )
    capacity = ResourceVector(
        cores=cores_per_worker,
        memory_mb=cores_per_worker * FOOT.memory_mb,
        disk_mb=cores_per_worker * FOOT.disk_mb,
    )
    for i in range(n_workers):
        # Same connect latency for the whole fleet: every registration
        # lands on one tick, so the capacity fill is one coalesced
        # dispatch pass.
        Worker(
            engine,
            shards[i % len(shards)],
            f"w{i}",
            capacity,
            connect_latency=1.0,
        )
    return foreman, coordinator


def _count_dispatches(foreman: Foreman) -> List[int]:
    return [
        sum(1 for rec in shard.journal.records if rec.op in DISPATCH_OPS)
        for shard in foreman.shards
    ]


def run_dispatch_plane(
    n_shards: int,
    *,
    n_tasks: int,
    n_workers: int = 16,
    execute_s: float = 30.0,
    seed: int = 0,
    warmup_sim_s: float = 5.0,
    max_wall_s: float = 60.0,
) -> ShardMeasurement:
    """Measure one configuration's steady-state dispatch throughput.

    Builds N masters behind a foreman, attaches the worker fleet
    round-robin, submits the bag, runs the simulation to
    ``warmup_sim_s`` (covering worker connect and the initial capacity
    fill, whose one large burst is equal across configurations and
    would otherwise mask the per-completion pass cost), then drives a
    wall-boxed window and reports the dispatch-record delta."""
    foreman, _ = dispatch_plane(
        n_shards,
        seed=seed,
        n_workers=n_workers,
        cores_per_worker=CORES_PER_WORKER,
    )
    engine = foreman.engine
    bag = lognormal_bag(
        "shards", n_tasks, execute_s=execute_s, rng=RngRegistry(seed + 7919)
    )
    foreman.submit_many(bag)
    engine.run(until=warmup_sim_s)
    floor = _count_dispatches(foreman)
    done_floor = foreman.stats().done
    events_floor = engine.events_fired
    started = time.perf_counter()
    # Small event chunks keep the wall box tight. Rate accuracy is
    # unharmed either way (the wall is measured, the counts are deltas).
    stop = drive(
        engine,
        lambda: False,
        until=math.inf,
        chunk_s=1e9,
        max_events=64,
        deadline=started + max_wall_s,
    )
    wall = time.perf_counter() - started
    sim_s = engine.now
    if stop == DRAINED:
        # The last chunk left the clock at its 1e9 s horizon; the bag's
        # last completion is the last event that mattered.
        sim_s = max(t.finish_time for t in bag if t.finish_time is not None)
    per_shard = [
        after - before for after, before in zip(_count_dispatches(foreman), floor)
    ]
    measurement = ShardMeasurement(
        name=f"shards-{n_tasks // 1000}k-x{n_shards}",
        n_shards=n_shards,
        n_tasks=n_tasks,
        wall_s=wall,
        sim_s=sim_s,
        engine_events=engine.events_fired - events_floor,
        dispatch_events=sum(per_shard),
        per_shard_dispatch=per_shard,
        tasks_completed=foreman.stats().done - done_floor,
    )
    foreman.close()
    return measurement


@dataclass
class HtaFidelity:
    """Single-master-oracle vs sharded HTA sizing decisions."""

    pods_created_oracle: float
    pods_created_sharded: float
    nodes_peak_oracle: int
    nodes_peak_sharded: int
    tolerance: float = HTA_TOLERANCE

    @staticmethod
    def _within(a: float, b: float, tolerance: float) -> bool:
        return abs(a - b) <= max(2.0, tolerance * max(a, b))

    @property
    def ok(self) -> bool:
        return self._within(
            self.pods_created_oracle, self.pods_created_sharded, self.tolerance
        ) and self._within(
            float(self.nodes_peak_oracle),
            float(self.nodes_peak_sharded),
            self.tolerance,
        )

    def row(self) -> Dict[str, object]:
        return {
            "pods_created_oracle": self.pods_created_oracle,
            "pods_created_sharded": self.pods_created_sharded,
            "nodes_peak_oracle": self.nodes_peak_oracle,
            "nodes_peak_sharded": self.nodes_peak_sharded,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


def check_hta_fidelity(
    seed: int, *, n_shards: int = 4, n_tasks: int = 1_000, max_nodes: int = 100
) -> HtaFidelity:
    """Run the same small workload through the full cluster stack under
    plain ``hta`` and under ``sharded`` at ``n_shards``; the operator's
    sizing decisions must agree within :data:`HTA_TOLERANCE`."""
    results = {}
    for policy, options in (("hta", {}), ("sharded", {"shards": n_shards})):
        scenario = PerfScenario(
            name=f"shards-fidelity-{policy}",
            n_tasks=n_tasks,
            max_nodes=max_nodes,
            policy=policy,
            execute_s=60.0,
            seed=seed,
            options=options,
        )
        results[policy] = run_experiment(scenario.build_spec())
    oracle, sharded = results["hta"], results["sharded"]
    return HtaFidelity(
        pods_created_oracle=oracle.extras.get("pods_created", 0.0),
        pods_created_sharded=sharded.extras.get("pods_created", 0.0),
        nodes_peak_oracle=oracle.nodes_peak,
        nodes_peak_sharded=sharded.nodes_peak,
    )


@dataclass
class ShardsReport:
    """The contrast's collected measurements, rendered and serialized."""

    runs: List[ShardMeasurement]
    fidelity: HtaFidelity
    speedup: float = 0.0
    smoke: bool = False
    notes: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "experiment": "shards",
            "smoke": self.smoke,
            "runs": {m.name: m.row() for m in self.runs},
            "dispatch_speedup": round(self.speedup, 2),
            "hta_fidelity": self.fidelity.row(),
            "notes": list(self.notes),
        }

    def table(self) -> str:
        header = (
            f"{'config':<22} {'shards':>6} {'wall_s':>8} "
            f"{'dispatches':>11} {'disp/s':>9}  per-shard disp/s"
        )
        lines = [header, "-" * len(header)]
        for m in self.runs:
            per_shard = ", ".join(
                f"{v:.0f}" for v in m.per_shard_events_per_sec
            )
            lines.append(
                f"{m.name:<22} {m.n_shards:>6} {m.wall_s:>8.1f} "
                f"{m.dispatch_events:>11} "
                f"{m.dispatch_events_per_sec:>9.1f}  [{per_shard}]"
            )
        lines.append("")
        lines.append(
            f"dispatch speedup {self.runs[-1].n_shards} shard(s) vs "
            f"{self.runs[0].n_shards}: {self.speedup:.2f}x (advisory)"
        )
        f = self.fidelity
        lines.append(
            f"HTA fidelity vs single-master oracle: pods_created "
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
    max_wall_s: Optional[float] = None,
    n_tasks: Optional[int] = None,
) -> str:
    """Run the shard-scaling contrast; returns the rendered table.

    Full mode: the ~1M-task bag at 1 and 4 shards.
    Smoke mode: a 100k bag at 1 and 2 shards.
    """
    if smoke:
        shard_counts = (1, 2)
        bag = n_tasks if n_tasks is not None else 100_000
        wall = max_wall_s if max_wall_s is not None else 10.0
    else:
        shard_counts = (1, 4)
        bag = n_tasks if n_tasks is not None else 1_000_000
        wall = max_wall_s if max_wall_s is not None else 60.0

    runs: List[ShardMeasurement] = []
    for count in shard_counts:
        print(f"shards: running the {bag}-task bag at {count} shard(s)...")
        measurement = run_dispatch_plane(
            count, n_tasks=bag, seed=seed, max_wall_s=wall
        )
        runs.append(measurement)
        print(
            f"shards: {measurement.name}: "
            f"{measurement.dispatch_events_per_sec:.1f} dispatch events/s "
            f"steady-state"
        )

    base, top = runs[0], runs[-1]
    speedup = (
        top.dispatch_events_per_sec / base.dispatch_events_per_sec
        if base.dispatch_events_per_sec > 0
        else 0.0
    )

    print("shards: checking HTA sizing fidelity vs the single-master oracle...")
    fidelity = check_hta_fidelity(seed)

    report = ShardsReport(
        runs=runs, fidelity=fidelity, speedup=speedup, smoke=smoke
    )
    directory = Path(out_dir) if out_dir is not None else DEFAULT_OUT_DIR
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "BENCH_PERF.json", "w") as f:
        json.dump(report.to_json(), f, indent=2, sort_keys=True)
    out = report.table()
    print(out)
    print(f"\n[BENCH_PERF.json -> {directory / 'BENCH_PERF.json'}]")
    if not fidelity.ok:
        raise SystemExit(
            "shards: HTA sizing under the foreman diverged from the "
            "single-master oracle beyond tolerance; see report above"
        )
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
