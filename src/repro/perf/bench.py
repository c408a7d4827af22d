"""The macro-benchmark sweep driver and ``BENCH_PERF.json`` emitter.

Modeled on the megaphone-style bench harness: a named scenario list, one
result directory per run, and a single machine-readable report at the
top. It advances the engine with the runner's own
:func:`~repro.experiments.runner.drive`, as every run does, but in
event-bounded chunks under a wall-clock deadline, so it can *time-box*
a run: a configuration too slow to finish (the whole point of
benchmarking a pre-optimization simulator on the 100k-task rung) still
yields a valid sim-seconds/wall-second sample from the partial run —
throughput is a rate, not a total.

Measured per run:

- ``wall_s`` / ``sim_s`` / ``sim_per_wall`` — the headline metric.
- ``events`` / ``events_per_sec`` — engine-level throughput, and the
  deterministic side of the regression gate: for a fixed seed the event
  count must not drift across behavior-preserving optimizations once a
  run completes.
- ``peak_rss_mb`` — ``ru_maxrss`` at run end. Process-wide high-water
  mark, so in a multi-scenario sweep later runs inherit earlier peaks;
  the CI smoke job runs a single scenario for a clean reading.
- ``tasks_completed`` / ``tasks_total`` / ``completed`` — whether the
  workload finished inside the wall budget.
- ``tasks_abandoned`` — tasks the workflow lost for good. A run whose
  workflow fails stops there and is recorded (``completed: false``, the
  sim time of the failure) instead of raising, so a sweep goes on to the
  next rung.
- ``stopped`` — why the drive stopped: ``finished`` (done or failed),
  ``sim limit``, ``queue drained`` or ``wall deadline``.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.runner import FINISHED, _assembled, drive
from repro.perf.scenarios import LADDER, PerfScenario
from repro.telemetry.session import TelemetryConfig

#: Report schema version (bump when the JSON shape changes).
SCHEMA = 1


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover — bytes on macOS
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


@dataclass
class RunMeasurement:
    """One scenario's measured numbers."""

    scenario: str
    policy: str
    n_tasks: int
    max_nodes: int
    wall_s: float
    sim_s: float
    events: int
    tasks_total: int
    tasks_completed: int
    completed: bool
    peak_rss_mb: float
    tasks_abandoned: int = 0
    #: Why the drive loop stopped (see :func:`repro.experiments.runner.drive`).
    stopped: str = FINISHED

    @property
    def sim_per_wall(self) -> float:
        return self.sim_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def row(self) -> Dict[str, object]:
        d = asdict(self)
        d["sim_per_wall"] = round(self.sim_per_wall, 2)
        d["events_per_sec"] = round(self.events_per_sec, 1)
        return d


@dataclass
class BenchConfig:
    """One sweep: which scenarios, where, and the per-run wall budget."""

    scenarios: List[PerfScenario] = field(default_factory=lambda: list(LADDER))
    out_dir: Path = Path("bench-results")
    #: Per-run wall-clock budget; None drives every run to completion.
    max_wall_s: Optional[float] = 120.0
    #: A prior report to compute speedups against (e.g. the committed
    #: pre-optimization capture); folded into the emitted report.
    reference_path: Optional[Path] = None


@dataclass
class BenchReport:
    """The sweep's collected measurements plus derived comparisons."""

    runs: List[RunMeasurement]
    #: scenario name -> sim_per_wall ratio vs the reference report.
    speedup_vs_reference: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "runs": {m.scenario: m.row() for m in self.runs},
            "speedup_vs_reference": {
                k: round(v, 2) for k, v in self.speedup_vs_reference.items()
            },
        }

    def table(self) -> str:
        header = (
            f"{'scenario':<26} {'tasks':>7} {'nodes':>6} {'wall_s':>8} "
            f"{'sim_s':>9} {'sim/wall':>9} {'events/s':>10} {'rss_mb':>8} done"
        )
        lines = [header, "-" * len(header)]
        for m in self.runs:
            lines.append(
                f"{m.scenario:<26} {m.n_tasks:>7} {m.max_nodes:>6} "
                f"{m.wall_s:>8.1f} {m.sim_s:>9.0f} {m.sim_per_wall:>9.1f} "
                f"{m.events_per_sec:>10.0f} {m.peak_rss_mb:>8.0f} "
                f"{'yes' if m.completed else 'FAIL' if m.tasks_abandoned else 'NO'}"
            )
        for name, ratio in sorted(self.speedup_vs_reference.items()):
            lines.append(f"speedup vs reference  {name}: {ratio:.1f}x")
        return "\n".join(lines)


def run_scenario(
    scenario: PerfScenario, *, max_wall_s: Optional[float] = None
) -> RunMeasurement:
    """Execute one scenario under the bench's wall-boxed drive loop.

    Assembles the run exactly as
    :func:`repro.experiments.runner.run_experiment` does, but drives the
    engine in event-bounded chunks with a wall-clock check between
    chunks, so a slow configuration yields a partial-but-valid
    throughput sample instead of hanging the sweep. Telemetry stays
    disabled: the benchmark measures the simulator's production fast
    path.
    """
    spec = scenario.build_spec()
    telemetry = TelemetryConfig(enabled=False)
    started = time.perf_counter()
    with _assembled(spec, telemetry) as (stack, graph, harness, manager, accountant):
        engine = stack.engine
        accountant.start()
        manager.start()
        # Event-bounded chunks keep the wall box tight even when the
        # simulation is inside a same-timestamp event burst (where a
        # sim-time chunk boundary could never trip). A failed workflow
        # stops the run too; it is recorded below and the sweep moves on.
        stopped = drive(
            engine,
            lambda: manager.done or manager.failed,
            until=stack.config.max_sim_time_s,
            max_events=4096,
            deadline=None if max_wall_s is None else started + max_wall_s,
        )
        accountant.stop()
        if manager.done and harness.finish is not None:
            harness.finish()
        wall = time.perf_counter() - started
        return RunMeasurement(
            scenario=scenario.name,
            policy=scenario.policy,
            n_tasks=scenario.n_tasks,
            max_nodes=scenario.max_nodes,
            wall_s=wall,
            sim_s=engine.now,
            events=engine.events_fired,
            tasks_total=len(graph),
            tasks_completed=len(stack.master.done),
            completed=bool(manager.done),
            peak_rss_mb=_peak_rss_mb(),
            tasks_abandoned=len(manager.failed_task_ids),
            stopped=stopped,
        )


def run_bench(config: BenchConfig, *, echo=print) -> BenchReport:
    """Run the sweep; write per-run results and ``BENCH_PERF.json``."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference: Dict[str, Dict] = {}
    if config.reference_path is not None and Path(config.reference_path).exists():
        with open(config.reference_path) as f:
            reference = json.load(f).get("runs", {})
    runs: List[RunMeasurement] = []
    for scenario in config.scenarios:
        echo(f"perf: running {scenario.name} "
             f"({scenario.n_tasks} tasks, {scenario.max_nodes} nodes)...")
        measurement = run_scenario(scenario, max_wall_s=config.max_wall_s)
        runs.append(measurement)
        run_dir = out_dir / scenario.name
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / "result.json", "w") as f:
            json.dump(measurement.row(), f, indent=2, sort_keys=True)
        if measurement.tasks_abandoned:
            status = (
                f" (workflow failed: {measurement.tasks_abandoned} task(s) "
                f"abandoned at t={measurement.sim_s:.0f}s)"
            )
        else:
            status = "" if measurement.completed else f" ({measurement.stopped})"
        echo(
            f"perf: {scenario.name}: {measurement.sim_per_wall:.1f} sim-s/wall-s, "
            f"{measurement.events_per_sec:.0f} events/s{status}"
        )
    report = BenchReport(runs=runs)
    for m in runs:
        ref = reference.get(m.scenario)
        if ref and ref.get("sim_per_wall"):
            report.speedup_vs_reference[m.scenario] = (
                m.sim_per_wall / float(ref["sim_per_wall"])
            )
    with open(out_dir / "BENCH_PERF.json", "w") as f:
        json.dump(report.to_json(), f, indent=2, sort_keys=True)
    return report
