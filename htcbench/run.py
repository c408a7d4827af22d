"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 htcbench/run.py --workload deep-queue --seed 1 --seconds 20 --trace 0

The run repeats the workload (fresh inputs from ``--seed``, fresh stack)
until ``--seconds`` have passed, at least twice, and reports medians.
Times are in reference seconds (see ``htcbench/host.py``); the raw
wall-clock medians are printed above the result.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics. Every
repetition is checked: all tasks complete, none is abandoned, and the
journal digest and event count equal the first repetition's. The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_REPS = 2
#: Set-ups timed and discarded before each measured repetition's own,
#: so ``setup_s`` is a median over several samples per repetition.
EXTRA_SETUPS = 4

#: The unit of every end-to-end metric.
END_TO_END_UNITS: Dict[str, str] = {
    "sim_per_wall": "sim-s/s",
    "wall_s": "s",
    "setup_s": "s",
    "tick_wall_p50_ms": "ms",
    "tick_wall_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "makespan_s": "s",
    "waste_core_s": "core-s",
    "shortage_core_s": "core-s",
    "task_done_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage", "scans_per_bind")):
        return "ratio"
    return "count"


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _check(result, reference) -> Optional[str]:
    """Why ``result`` is wrong, or None."""
    if result.tasks_abandoned:
        return f"{result.tasks_abandoned} task(s) abandoned"
    if not (result.tasks_done == result.distinct_done == result.tasks_total):
        return (f"{result.tasks_done} completions of {result.distinct_done} "
                f"distinct tasks, {result.tasks_total} submitted")
    if reference is not None and (
        (result.digest, result.events) != (reference.digest, reference.events)
    ):
        return (f"digest/events {result.digest[:12]}/{result.events} differ "
                f"from {reference.digest[:12]}/{reference.events}")
    return None


class Checks:
    """Checks every repetition against the run's first good one."""

    def __init__(self) -> None:
        self.reference = None
        self.passed = 0
        self.failed = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        print(f"check failed: {problem}", file=sys.stderr)

    def ok(self, result) -> bool:
        problem = _check(result, self.reference)
        if problem is not None:
            self.fail(problem)
            return False
        if self.reference is None:
            self.reference = result
        self.passed += 1
        return True


def end_to_end(ok: List, setup_s: List[float]) -> Dict[str, float]:
    first = ok[0]
    return {
        "sim_per_wall": _median([r.sim_per_wall for r in ok]),
        "wall_s": _median([r.wall_s for r in ok]),
        "setup_s": _median(setup_s),
        "tick_wall_p50_ms": _median(
            [1e3 * _percentile(r.step_wall_s, 50) for r in ok]),
        "tick_wall_p90_ms": _median(
            [1e3 * _percentile(r.step_wall_s, 90) for r in ok]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "makespan_s": first.makespan_s,
        "waste_core_s": first.waste_core_s,
        "shortage_core_s": first.shortage_core_s,
        "task_done_ratio": min(r.tasks_done / r.tasks_total for r in ok),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink task and node counts (tests use this)")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import repro
        if not os.path.abspath(repro.__file__).startswith(src + os.sep):
            raise ImportError(f"repro is not this checkout's ({repro.__file__})")
        from repro.experiments.runner import WorkflowFailed

        from htcbench import host
        from htcbench.drive import WorkloadIncomplete, drive, prepare
        from htcbench.layers import LayerTrace
        from htcbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"htcbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"htcbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    def set_up():
        """One timed set-up (inputs, stack, policy); returns the stack
        and its set-up time in reference seconds."""
        gc.collect()
        prep = prepare(workload, args.seed, args.scale)
        raw_setup.append(prep.setup_s)
        setup_s.append(prep.setup_s * host.factor())
        return prep

    def once(trace: Optional[LayerTrace] = None):
        for _ in range(EXTRA_SETUPS):
            set_up().stack.close()
        prep = set_up()
        if trace is None:
            return drive(prep)
        trace.reset()
        engine = prep.stack.engine
        return drive(prep, run=lambda until: trace.span(
            "sim", engine.run, until=until))

    deadline = time.perf_counter() + args.seconds
    raw_setup: List[float] = []
    setup_s: List[float] = []
    checks = Checks()
    plain: List = []
    traced: List = []
    layer_runs: List[Dict[str, float]] = []
    while not checks.failed:
        try:
            result = once()
            if checks.ok(result):
                plain.append(result)
            if args.trace:
                trace = LayerTrace()
                with trace:
                    result = once(trace)
                if checks.ok(result):
                    traced.append(result)
                    layer_runs.append(trace.metrics(
                        result.loop_s, result.events, result.host_factor))
        except (WorkflowFailed, WorkloadIncomplete) as exc:
            checks.fail(str(exc))
        if checks.passed >= MIN_REPS and time.perf_counter() >= deadline:
            break

    metrics: Dict[str, Dict[str, object]] = {}
    if args.trace and layer_runs:
        names = list(layer_runs[0])
        values = {n: _median([run[n] for run in layer_runs]) for n in names}
        values["trace.overhead_ratio"] = (
            _median([r.wall_s for r in traced])
            / _median([r.wall_s for r in plain]))
        metrics = {n: {"value": v, "unit": per_layer_unit(n)}
                   for n, v in values.items()}
    elif not args.trace and plain:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                   for n, v in end_to_end(plain, setup_s).items()}
    for name, m in metrics.items():
        print(f"{args.workload:<20} {name:<40} {m['value']:>16.6g} {m['unit']}")
    if plain:
        print(f"{args.workload:<20} raw wall_s median "
              f"{_median([r.raw_wall_s for r in plain]):.4f} s, raw setup_s "
              f"median {_median(raw_setup):.4f} s, over {len(plain)} "
              f"untraced and {len(traced)} traced repetitions")
    correct = checks.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": checks.passed + checks.failed,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
