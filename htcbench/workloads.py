"""The benchmark's named workloads, generated from a seed.

Every workload runs under HTA (plain or over the sharded data plane)
with stack seed 42 and accounting every 5 s. Task runtimes are lognormal
around their stage mean with cv 0.25, drawn stratified: a stage of ``n``
tasks gets the ``n`` quantiles ``(i + 0.5) / n`` of the distribution,
shuffled by the workload seed. Every seed therefore runs the same total
work in a different order, and the outcome metrics move with the order,
not with sampling noise in the total or in the slowest task. The seed
changes only the generated task set; the simulated cluster, network and
autoscaler are the same for every seed.

``scale`` multiplies task and node counts (the tests run at smoke
size); 1.0 is the benchmark size, 2.5 the full-size variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Dict, List

from repro.cluster.resources import ResourceVector
from repro.makeflow.dag import WorkflowGraph
from repro.sim.rng import RngRegistry
from repro.wq.task import FileSpec, Task

GB = 1024.0
RUNTIME_CV = 0.25
STACK_SEED = 42
ACCOUNTING_PERIOD_S = 5.0


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def stratified_runtimes(
    rng: RngRegistry, stream: str, n: int, mean_s: float, *, median_first=False
) -> List[float]:
    """``n`` lognormal quantiles (mean ``mean_s``, cv 0.25), shuffled.

    With ``median_first`` the median quantile goes first: HTA probes an
    undeclared category with its first task and holds the rest until
    the probe ends, so the probe's runtime would otherwise shift the
    whole run by up to +-70% of the stage mean from one seed to the next.
    """
    sigma = math.sqrt(math.log1p(RUNTIME_CV**2))
    mu = math.log(mean_s) - sigma**2 / 2
    unit = NormalDist()
    runtimes = [math.exp(mu + sigma * unit.inv_cdf((i + 0.5) / n)) for i in range(n)]
    order = list(rng.stream(stream).permutation(n))
    if median_first:
        order.remove(n // 2)
        order.insert(0, n // 2)
    return [runtimes[i] for i in order]


def _bag(
    seed: int,
    n: int,
    *,
    category: str,
    execute_s: float,
    footprint: ResourceVector,
) -> WorkflowGraph:
    """``n`` independent declared tasks of one category."""
    runtimes = stratified_runtimes(RngRegistry(seed), category, n, execute_s)
    tasks = [
        Task(
            category,
            execute_s=runtimes[i],
            footprint=footprint,
            declared=footprint,
            inputs=(FileSpec(f"{category}.in.{i:05d}", 1.0),),
            outputs=(FileSpec(f"{category}.out.{i:05d}", 1.0),),
        )
        for i in range(n)
    ]
    return WorkflowGraph(tasks)


def deep_queue(seed: int, scale: float = 1.0) -> WorkflowGraph:
    return _bag(
        seed,
        _count(3200, scale),
        category="deep",
        execute_s=120.0,
        footprint=ResourceVector(cores=1, memory_mb=4 * GB, disk_mb=1 * GB),
    )


def wide_cluster(seed: int, scale: float = 1.0) -> WorkflowGraph:
    return _bag(
        seed,
        _count(800, scale),
        category="wide",
        execute_s=600.0,
        footprint=ResourceVector(cores=3, memory_mb=8 * GB, disk_mb=2 * GB),
    )


def multistage_churn(seed: int, scale: float = 1.0) -> WorkflowGraph:
    """align (1600) -> reduce (40, 40-way fan-in) -> refine (1600),
    undeclared, so HTA's warm-up probes each category.

    Each group of 40 aligns (and of 40 refines) draws the same 40
    quantiles, so every reduce waits on the same slowest align; the
    first task of each group and the first reduce take the median, as
    the probes are drawn from those.
    """
    rng = RngRegistry(seed)
    n_reduce = _count(40, scale)
    fan = 40
    align_s: List[float] = []
    refine_s: List[float] = []
    for r in range(n_reduce):
        align_s += stratified_runtimes(rng, "align", fan, 240.0, median_first=True)
        refine_s += stratified_runtimes(rng, "refine", fan, 120.0, median_first=True)
    reduce_s = stratified_runtimes(rng, "reduce", n_reduce, 300.0, median_first=True)
    reference = FileSpec("align.reference", 1400.0, cacheable=True)
    align = ResourceVector(cores=1, memory_mb=2.5 * GB, disk_mb=2 * GB)
    reduce_ = ResourceVector(cores=2, memory_mb=6 * GB, disk_mb=4 * GB)
    refine = ResourceVector(cores=1, memory_mb=1 * GB, disk_mb=20 * GB)
    tasks: List[Task] = []
    for r in range(n_reduce):
        outs = []
        for j in range(fan):
            i = r * fan + j
            out = FileSpec(f"align.out.{i:05d}", 50.0)
            outs.append(out)
            tasks.append(
                Task(
                    "align",
                    execute_s=align_s[i],
                    footprint=align,
                    inputs=(reference, FileSpec(f"align.in.{i:05d}", 20.0)),
                    outputs=(out,),
                )
            )
        merged = FileSpec(f"reduce.out.{r:04d}", 200.0)
        tasks.append(
            Task(
                "reduce",
                execute_s=reduce_s[r],
                footprint=reduce_,
                inputs=tuple(outs),
                outputs=(merged,),
            )
        )
        for j in range(fan):
            i = r * fan + j
            tasks.append(
                Task(
                    "refine",
                    execute_s=refine_s[i],
                    footprint=refine,
                    inputs=(merged,),
                    outputs=(FileSpec(f"refine.out.{i:05d}", 5.0),),
                )
            )
    return WorkflowGraph(tasks)


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: how to generate it and run it."""

    name: str
    generate: Callable[[int, float], WorkflowGraph]
    max_nodes: int
    policy: str = "hta"
    options: Dict[str, object] = field(default_factory=dict)

    def nodes(self, scale: float) -> int:
        return max(4, round(self.max_nodes * scale))


#: Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("deep-queue", deep_queue, max_nodes=100),
        Workload("wide-cluster", wide_cluster, max_nodes=800),
        Workload("multistage-churn", multistage_churn, max_nodes=160),
        Workload(
            "deep-queue-sharded4",
            deep_queue,
            max_nodes=100,
            policy="sharded",
            options={"shards": 4},
        ),
    )
}
