"""Fig 2 — workload runtime statistics under different HPA target CPU loads.

§III-B runs the 200-job BLAST workload on a ≤15-node GKE cluster under
HPA with target CPU 10 %, 50 %, and 99 % ("Config-10/50/99") and tracks
four series per configuration: connected worker-pods, idle worker-pods,
the HPA-desired count, and the ideal count. Paper findings:

* Config-10 and Config-50 finish in ~1294 s / ~1304 s with ~68 % / ~65 %
  CPU usage, both reaching the 15-node cap;
* Config-99 **never scales up** (utilization/target ≈ 1 is inside HPA's
  tolerance band) and takes 4682 s;
* the ideal schedule would finish in 240 s.

Worker pods are 1-core here ("the resource requirements of individual
jobs are known in advance"), so HPA has 60 pod slots over 15 nodes.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.cluster import ClusterConfig
from repro.cluster.node import N1_STANDARD_4
from repro.cluster.resources import ResourceVector
from repro.experiments.report import ascii_chart, paper_vs_measured
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    StackConfig,
    run_experiment,
)
from repro.wq.task import FileSpec, Task
from repro.workloads.blast import ALIGN_FOOTPRINT

#: Paper-reported values (seconds / percent).
PAPER = {
    "runtime_config10_s": 1294.0,
    "runtime_config50_s": 1304.0,
    "runtime_config99_s": 4682.0,
    "runtime_ideal_s": 240.0,
    "cpu_config10": 0.683,
    "cpu_config50": 0.652,
}

N_TASKS = 200
EXECUTE_S = 60.0
WORKER_REQUEST = ResourceVector(cores=1, memory_mb=3 * 1024, disk_mb=20 * 1024)
MAX_NODES = 15
PODS_PER_NODE = 4
MAX_PODS = MAX_NODES * PODS_PER_NODE


def stack_config(seed: int = 0, *, min_nodes: int = 3) -> StackConfig:
    return StackConfig(
        cluster=ClusterConfig(
            machine_type=N1_STANDARD_4,
            min_nodes=min_nodes,
            max_nodes=MAX_NODES,
            # GKE provisions in visible batches (§IV-B); a modest cap
            # reproduces the staged ramp of the paper's traces.
            max_concurrent_reservations=2,
        ),
        worker_request=WORKER_REQUEST,
        seed=seed,
    )


def make_workload() -> list:
    """200 parallel BLAST jobs "with each of them having the same size of
    input data" — a 100 MB cacheable index plus a small query chunk (the
    1.4 GB shareable-database variant belongs to fig 4)."""
    index = FileSpec("blast-index", 100.0, cacheable=True)
    return [
        Task(
            "align",
            execute_s=EXECUTE_S,
            footprint=ALIGN_FOOTPRINT,
            declared=ALIGN_FOOTPRINT,
            inputs=(index, FileSpec(f"query.{i:04d}", 7.0)),
            outputs=(FileSpec(f"hits.{i:04d}", 0.6),),
        )
        for i in range(N_TASKS)
    ]


def run_config(target_cpu: float, seed: int = 0) -> ExperimentResult:
    """One HPA configuration over the 200-job BLAST workload."""
    return run_experiment(
        ExperimentSpec(
            make_workload(),
            policy="hpa",
            name=f"Config-{int(target_cpu * 100)}",
            stack=stack_config(seed),
            options={
                "target_cpu": target_cpu,
                "min_replicas": 3,
                "max_replicas": MAX_PODS,
            },
        )
    )


def run_ideal(seed: int = 0) -> ExperimentResult:
    """The ideal reference: all 60 worker slots pre-provisioned."""
    return run_experiment(
        ExperimentSpec(
            make_workload(),
            policy="static",
            name="ideal",
            stack=stack_config(seed, min_nodes=MAX_NODES),
            options={"n_workers": MAX_PODS, "estimator": "declared"},
        )
    )


def run(seed: int = 0) -> Dict[str, ExperimentResult]:
    return {
        "Config-10": run_config(0.10, seed),
        "Config-50": run_config(0.50, seed),
        "Config-99": run_config(0.99, seed),
        "ideal": run_ideal(seed),
    }


def report(results: Dict[str, ExperimentResult]) -> str:
    sections = []
    for name, result in results.items():
        if name == "ideal":
            continue
        t0, t1 = result.accountant.window()
        series = {
            "connected": result.series("workers_connected"),
            "idle": result.series("workers_idle"),
            "hpa-desired": result.series("hpa_desired"),
            "ideal": result.series("ideal_workers"),
        }
        sections.append(
            ascii_chart(series, t0, t1, title=f"Fig 2 ({name}): worker-pod counts")
        )
        sections.append(result.summary())
    rows = [
        ("Config-10 runtime (s)", PAPER["runtime_config10_s"], results["Config-10"].makespan_s),
        ("Config-50 runtime (s)", PAPER["runtime_config50_s"], results["Config-50"].makespan_s),
        ("Config-99 runtime (s)", PAPER["runtime_config99_s"], results["Config-99"].makespan_s),
        ("ideal runtime (s)", PAPER["runtime_ideal_s"], results["ideal"].makespan_s),
        ("Config-10 CPU util", PAPER["cpu_config10"], results["Config-10"].accounting.utilization),
        ("Config-50 CPU util", PAPER["cpu_config50"], results["Config-50"].accounting.utilization),
    ]
    sections.append(paper_vs_measured(rows, title="Fig 2: paper vs measured"))
    return "\n\n".join(sections)


def main(seed: int = 0) -> str:
    out = report(run(seed))
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
