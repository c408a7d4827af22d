"""Build one workload's stack and drive it to completion.

The assembly mirrors ``repro.experiments.runner.run_experiment`` (same
policy registry, stack and accountant), but the benchmark owns the drive
loop: it advances the engine in 10 sim-s steps, times each step, and
stops at the workflow's done signal instead of at the end of a chunk.
Each step is followed by one host calibration sample (outside the
step's timing), which converts its wall time to reference seconds
(:mod:`htcbench.host`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cluster.cluster import ClusterConfig
from repro.experiments.runner import (
    POLICIES,
    StackConfig,
    WorkflowFailed,
    _make_accountant,
    _reject_unknown,
    _Stack,
)
from repro.makeflow.dag import WorkflowGraph
from repro.makeflow.manager import WorkflowManager
from repro.telemetry.session import TelemetryConfig

from htcbench import host
from htcbench.workloads import ACCOUNTING_PERIOD_S, STACK_SEED, Workload

STEP_S = 10.0
MAX_SIM_S = 100_000.0


class WorkloadIncomplete(RuntimeError):
    """The workflow did not finish (queue drained or sim-time cap hit)."""


@dataclass
class Prepared:
    """A built stack, ready to drive; ``setup_s`` is what building cost."""

    stack: _Stack
    graph: WorkflowGraph
    manager: WorkflowManager
    accountant: object
    harness: object
    setup_s: float


@dataclass
class RunResult:
    """What one drive to completion measured and produced.

    ``wall_s`` and ``step_wall_s`` are in reference seconds; the raw
    wall-clock readings are ``raw_wall_s`` and ``loop_s``.
    """

    wall_s: float
    raw_wall_s: float
    makespan_s: float
    events: int
    step_wall_s: List[float]
    waste_core_s: float
    shortage_core_s: float
    tasks_total: int
    tasks_done: int
    tasks_abandoned: int
    distinct_done: int
    digest: str
    #: Raw wall seconds of the whole drive loop, past the done signal
    #: (calibration samples excluded).
    loop_s: float
    #: Reference seconds per raw second over the drive loop.
    host_factor: float

    @property
    def sim_per_wall(self) -> float:
        return self.makespan_s / self.wall_s


def prepare(workload: Workload, seed: int, scale: float = 1.0) -> Prepared:
    """Generate the inputs and build the stack and policy (the set-up)."""
    started = time.perf_counter()
    graph = workload.generate(seed, scale)
    policy = POLICIES[workload.policy]
    options: Dict = dict(workload.options)
    if policy.validate is not None:
        policy.validate(options)
    cfg = StackConfig(
        cluster=ClusterConfig(max_nodes=workload.nodes(scale)),
        seed=STACK_SEED,
        max_sim_time_s=MAX_SIM_S,
        accounting_period_s=ACCOUNTING_PERIOD_S,
    )
    stack = _Stack(
        cfg,
        estimator_kind=policy.estimator_kind(options),
        telemetry=TelemetryConfig(enabled=False),
    )
    harness = policy.build(stack, cfg, graph, options)
    _reject_unknown(workload.policy, options)
    manager = WorkflowManager(
        stack.engine, graph, harness.submitter, recorder=stack.recorder
    )
    if harness.on_manager is not None:
        harness.on_manager(manager)
    accountant = _make_accountant(
        stack,
        shortage_extra=harness.shortage_extra,
        extra_gauges=harness.gauges or None,
    )
    return Prepared(
        stack, graph, manager, accountant, harness,
        time.perf_counter() - started,
    )


def drive(
    prep: Prepared,
    *,
    run: Optional[Callable[[float], None]] = None,
) -> RunResult:
    """Drive ``prep`` to the workflow's done signal, timing every step.

    ``run(until)`` advances the engine; the traced run passes one that
    wraps ``engine.run`` in a span. Completion is latched by a done-signal
    waiter, which reads the clock and the event count at the exact event
    that finished the workflow.
    """
    stack, manager, accountant = prep.stack, prep.manager, prep.accountant
    engine = stack.engine
    if run is None:
        run = lambda until: engine.run(until=until)  # noqa: E731
    done_at: Dict[str, float] = {}

    def on_done(_manager) -> None:
        done_at["wall"] = time.perf_counter()
        done_at["events"] = engine.events_fired
        # Close the accounting window at completion, not at step end.
        accountant.stop()

    manager.done_signal.add_waiter(on_done)
    starts: List[float] = []
    steps: List[float] = []
    samples: List[float] = []
    harness = prep.harness
    try:
        started = time.perf_counter()
        if harness.start is not None:
            harness.start()
        accountant.start()
        manager.start()
        pre_s = time.perf_counter() - started
        while not manager.done:
            if manager.failed:
                raise WorkflowFailed(
                    f"task(s) abandoned at t={engine.now:.0f}s"
                )
            if engine.now >= MAX_SIM_S or engine.peek() is None:
                raise WorkloadIncomplete(
                    f"workflow {manager.progress():.0%} done at "
                    f"t={engine.now:.0f}s"
                )
            t0 = time.perf_counter()
            run(engine.now + STEP_S)
            steps.append(time.perf_counter() - t0)
            starts.append(t0)
            samples.append(host.calibrate())
        # Calibration ran between steps (all but the last before done);
        # it is not the program's time.
        loop_s = time.perf_counter() - started - sum(samples)
        raw_wall_s = done_at["wall"] - started - sum(samples[:-1])
        if harness.finish is not None:
            harness.finish()
        master = stack.master
        summary = accountant.summarize()
        done = master.done
        digest = master.journal.digest()
    finally:
        stack.close()
    factors = host.step_factors(samples)
    # Normalized start-to-done time: the set-up calls before the first
    # step, every full step, and the last step up to the done signal.
    wall_s = (
        pre_s * factors[0]
        + sum(w * f for w, f in zip(steps[:-1], factors))
        + (done_at["wall"] - starts[-1]) * factors[-1]
    )
    step_wall_s = [w * f for w, f in zip(steps, factors)]
    return RunResult(
        wall_s=wall_s,
        raw_wall_s=raw_wall_s,
        makespan_s=float(manager.makespan),
        events=int(done_at["events"]),
        step_wall_s=step_wall_s,
        waste_core_s=summary.accumulated_waste_core_s,
        shortage_core_s=summary.accumulated_shortage_core_s,
        tasks_total=len(prep.graph),
        tasks_done=len(done),
        tasks_abandoned=len(master.abandoned),
        distinct_done=len({t.id for t in done}),
        digest=digest,
        loop_s=loop_s,
        host_factor=sum(step_wall_s) / sum(steps),
    )
