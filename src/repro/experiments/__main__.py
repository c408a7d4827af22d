"""CLI: regenerate any of the paper's figures/tables.

Usage::

    python -m repro.experiments fig2          # one figure
    python -m repro.experiments fig2 fig10    # several in one go
    python -m repro.experiments all           # everything
    python -m repro.experiments list          # registry with descriptions
    python -m repro.experiments fig10 --seed 7
    python -m repro.experiments recovery --smoke --trace-out trace.json
    python -m repro.experiments recovery --smoke --explain
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro.experiments import (
    failover,
    fig2,
    fig4,
    fig5,
    fig6,
    fig9,
    fig10,
    fig11,
    forecast_cmp,
    integrity,
    migration,
    perf,
    preemption,
    recovery,
    resilience,
    shards,
    soak,
)

_MODULES = {
    "failover": failover,
    "fig2": fig2,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "forecast": forecast_cmp,
    "integrity": integrity,
    "migration": migration,
    "perf": perf,
    "preemption": preemption,
    "recovery": recovery,
    "resilience": resilience,
    "shards": shards,
    "soak": soak,
}

#: Experiments whose ``main`` accepts a ``smoke=`` reduced-scale mode.
_SMOKE_CAPABLE = {
    "failover",
    "perf",
    "recovery",
    "resilience",
    "preemption",
    "migration",
    "integrity",
    "shards",
    "soak",
}

FIGURES: Dict[str, Callable[[int], str]] = {
    name: module.main for name, module in _MODULES.items()
}

#: One-line description per experiment, taken from the module docstring.
DESCRIPTIONS: Dict[str, str] = {
    name: (module.__doc__ or "").strip().splitlines()[0].rstrip(".")
    for name, module in _MODULES.items()
}


def _run_profiled(name: str, out_dir: str, run: Callable[[], object]) -> None:
    """Run one experiment under cProfile; dump binary stats plus a
    cumulative-sorted text report next to them."""
    import cProfile
    import io
    import pstats
    from pathlib import Path

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
        binary = directory / f"{name}.prof"
        profiler.dump_stats(binary)
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.strip_dirs().sort_stats("cumulative").print_stats(60)
        text = directory / f"{name}.prof.txt"
        text.write_text(buffer.getvalue())
        print(f"\n[profile: {binary} (+ {text.name}, top 60 by cumulative)]")


def _print_registry() -> None:
    width = max(len(name) for name in FIGURES)
    print("Available experiments:\n")
    for name in sorted(FIGURES):
        print(f"  {name:<{width}}  {DESCRIPTIONS[name]}")
    print(f"  {'all':<{width}}  every experiment above, in order")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures/tables of 'Autoscaling "
            "High-Throughput Workloads on Container Orchestrators' "
            "(CLUSTER 2020) on the simulated substrate."
        ),
    )
    parser.add_argument(
        "figures",
        nargs="+",
        choices=sorted(FIGURES) + ["all", "list"],
        metavar="figure",
        help=(
            "experiments to regenerate (one or more of: "
            + ", ".join(sorted(FIGURES))
            + "), 'all' for everything, or 'list' to show the registry"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "reduced-scale run for CI smoke checks (supported by: "
            + ", ".join(sorted(_SMOKE_CAPABLE))
            + "; ignored elsewhere)"
        ),
    )
    parser.add_argument(
        "--crash-at",
        type=float,
        default=None,
        metavar="SECONDS",
        help="recovery only: master crash time (default: 55%% of makespan)",
    )
    parser.add_argument(
        "--outage-at",
        type=float,
        default=None,
        metavar="SECONDS",
        help="recovery only: API outage start (default: 20%% of makespan)",
    )
    parser.add_argument(
        "--outage-duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="recovery only: API outage length (default: 15%% of makespan)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "soak only: run N consecutive seeds starting at --seed "
            "(seed %% 8 picks what each run arms: bit 0 migration, "
            "bit 1 integrity faults, bit 2 a sharded plane)"
        ),
    )
    parser.add_argument(
        "--restart-delay",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="recovery only: crash-to-restart delay of the master",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "record a telemetry trace of every run to PATH "
            "(.jsonl for JSON-lines, anything else for Chrome trace "
            "format, loadable in chrome://tracing / Perfetto)"
        ),
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the autoscaler's per-cycle decision audit after each run",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="perf only: enforce the regression gate against the committed baseline",
    )
    parser.add_argument(
        "--bench-out",
        metavar="DIR",
        default=None,
        help=(
            "perf/shards/failover only: result directory "
            "(default: bench-results for perf, benchmarks/results/<name> "
            "for shards and failover)"
        ),
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        nargs="?",
        const=".",
        default=None,
        help=(
            "wrap each experiment run in cProfile and dump sorted "
            "cumulative stats (<name>.prof + <name>.prof.txt) to DIR "
            "(default: current directory)"
        ),
    )
    args = parser.parse_args(argv)

    if "list" in args.figures:
        _print_registry()
        return 0

    sink = None
    if args.trace_out is not None or args.explain:
        from repro.telemetry.session import (
            TelemetryConfig,
            TraceSink,
            set_default_telemetry,
        )

        # The sink collects every run's events; it is only flushed to
        # disk when --trace-out named a path.
        sink = TraceSink(args.trace_out if args.trace_out is not None else "")
        set_default_telemetry(TelemetryConfig(enabled=True), sink)

    targets: list[str] = []
    for name in args.figures:
        expanded = sorted(FIGURES) if name == "all" else [name]
        targets.extend(n for n in expanded if n not in targets)
    for name in targets:
        started = time.time()
        print(f"\n=== {name} (seed={args.seed}) ===\n")
        kwargs = {}
        if args.smoke and name in _SMOKE_CAPABLE:
            kwargs["smoke"] = True
        if name == "soak" and args.runs != 1:
            kwargs["runs"] = args.runs
        if name == "recovery":
            kwargs.update(
                crash_at_s=args.crash_at,
                outage_at_s=args.outage_at,
                outage_duration_s=args.outage_duration,
                restart_delay_s=args.restart_delay,
            )
        if name == "perf":
            kwargs["gate"] = args.gate
            if args.bench_out is not None:
                kwargs["out_dir"] = args.bench_out
        if name in ("shards", "failover") and args.bench_out is not None:
            kwargs["out_dir"] = args.bench_out
        if args.profile is not None:
            _run_profiled(name, args.profile, lambda: FIGURES[name](args.seed, **kwargs))
        else:
            FIGURES[name](args.seed, **kwargs)
        print(f"\n[{name} regenerated in {time.time() - started:.1f}s wall time]")

    if sink is not None:
        if args.explain:
            from repro.telemetry.explain import decision_events, explain_decisions

            for run_name, events in sink.runs:
                if not decision_events(events):
                    continue
                print(f"\n=== decision audit: {run_name} ===\n")
                print(explain_decisions(events))
        if args.trace_out is not None:
            path = sink.flush()
            print(
                f"\n[trace: {sink.event_count} events from "
                f"{len(sink.runs)} runs -> {path}]"
            )
        from repro.telemetry.session import set_default_telemetry

        set_default_telemetry(None, None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
