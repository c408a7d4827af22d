"""The accounting gauges as literal rescans, kept as a test oracle.

Before the maintained aggregates, every accounting sample refolded the
worker table for RS and RIU and relisted every node (and every pod, for
a label selector) through the API server. This module keeps those folds
verbatim, reading the same live objects, so a property test can demand
that each maintained value equals its rescan with float ``==``:

* :func:`supplied_cores` / :func:`cores_in_use` — ``DispatchCore``'s
  folds over ``workers``, with ``Worker.cores_in_use``'s fold inlined
  (summed over available shards for a foreman). A run counts by its own
  execution state (``run.state``), not by the ``Task`` it shares with a
  later holder after a requeue;
* :func:`worker_cores_in_use` / :func:`worker_cpu_usage` — the
  per-worker folds ``Worker.cores_in_use`` / ``Worker.cpu_usage`` served
  before they were kept on the worker;
* :func:`ready_node_count` / :func:`ready_spot_node_count` — the
  ``Cluster.node_count`` / ``spot_node_count`` relists;
* :func:`node_count` / :func:`ondemand_node_count` /
  :func:`spot_node_count` — the ``CloudController`` relists;
* :func:`list_selected` — ``KubeApiServer.list(kind, selector)`` as a
  filter over the kind's sorted snapshot.

:func:`mismatches` compares all of them against a live stack at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.api import KubeApiServer
from repro.cluster.node import Node
from repro.cluster.objects import KubeObject
from repro.wq.task import TaskState
from repro.wq.worker import WorkerState


# ------------------------------------------------------------------- wq
def _core_supplied_cores(core) -> float:
    return sum(
        w.capacity.cores
        for w in core.workers.values()
        if w.state in (WorkerState.READY, WorkerState.DRAINING)
        and not w.quarantined
    )


def worker_cores_in_use(worker) -> float:
    return sum(
        min(run.task.footprint.cores, run.allocation.cores)
        for run in worker.runs.values()
        if run.state is TaskState.RUNNING
    )


def worker_cpu_usage(worker) -> float:
    return sum(
        min(run.task.footprint.cores, run.allocation.cores) * run.task.cpu_fraction
        if run.state is TaskState.RUNNING
        else 0.0
        for run in worker.runs.values()
    )


def _core_cores_in_use(core) -> float:
    return sum(worker_cores_in_use(w) for w in core.workers.values())


def _shards(master) -> List:
    shards = getattr(master, "shards", None)
    if shards is None:
        return [master]
    return [s for s in shards if s.available]


def supplied_cores(master) -> float:
    """RS: a master's fold, or a foreman's sum over available shards."""
    if getattr(master, "shards", None) is None:
        return _core_supplied_cores(master)
    return sum(_core_supplied_cores(s) for s in _shards(master))


def cores_in_use(master) -> float:
    """RIU: a master's fold, or a foreman's sum over available shards."""
    if getattr(master, "shards", None) is None:
        return _core_cores_in_use(master)
    return sum(_core_cores_in_use(s) for s in _shards(master))


# -------------------------------------------------------------- cluster
def _nodes(api: KubeApiServer) -> List[Node]:
    return [n for n in api.list("Node") if isinstance(n, Node)]


def _ready_nodes(api: KubeApiServer) -> List[Node]:
    return [n for n in _nodes(api) if n.ready and not n.deleted]


def ready_node_count(api: KubeApiServer) -> int:
    return len(_ready_nodes(api))


def ready_spot_node_count(api: KubeApiServer) -> int:
    return len([n for n in _ready_nodes(api) if n.preemptible])


def node_count(api: KubeApiServer) -> int:
    return len([n for n in _nodes(api) if not n.deleted])


def ondemand_node_count(api: KubeApiServer) -> int:
    return len([n for n in _nodes(api) if not n.deleted and not n.preemptible])


def spot_node_count(api: KubeApiServer) -> int:
    return len([n for n in _nodes(api) if not n.deleted and n.preemptible])


def list_selected(
    api: KubeApiServer, kind: str, selector: Dict[str, str]
) -> List[KubeObject]:
    """The selector filter over the kind's full sorted list."""
    return [o for o in api.list(kind) if o.meta.matches(selector)]


# ----------------------------------------------------------- comparison
def mismatches(
    *,
    master=None,
    cluster=None,
    selectors: Tuple[Tuple[str, Dict[str, str]], ...] = (),
) -> List[Tuple[str, object, object]]:
    """``(name, maintained, literal)`` for every aggregate that differs.

    Floats compare with ``==``: the maintained values must be the same
    folds, not merely close ones. Selected lists compare by identity and
    order.
    """
    out: List[Tuple[str, object, object]] = []

    def check(name: str, maintained: object, literal: object) -> None:
        if maintained != literal:
            out.append((name, maintained, literal))

    if master is not None:
        check("supplied_cores", master.supplied_cores(), supplied_cores(master))
        check("cores_in_use", master.cores_in_use(), cores_in_use(master))
    if cluster is not None:
        api = cluster.api
        cloud: Optional[object] = getattr(cluster, "cloud", None)
        check("cluster.node_count", cluster.node_count(), ready_node_count(api))
        check(
            "cluster.spot_node_count",
            cluster.spot_node_count(),
            ready_spot_node_count(api),
        )
        if cloud is not None:
            check("cloud.node_count", cloud.node_count(), node_count(api))
            check(
                "cloud.ondemand_node_count",
                cloud.ondemand_node_count(),
                ondemand_node_count(api),
            )
            check("cloud.spot_node_count", cloud.spot_node_count(), spot_node_count(api))
        for kind, selector in selectors:
            got = api.list(kind, selector)
            want = list_selected(api, kind, selector)
            if len(got) != len(want) or any(a is not b for a, b in zip(got, want)):
                out.append(
                    (
                        f"list({kind}, {selector})",
                        [o.name for o in got],
                        [o.name for o in want],
                    )
                )
    return out
