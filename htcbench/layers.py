"""Per-layer wall-time attribution for the traced run, from outside.

Nothing in the program is edited. While a :class:`LayerTrace` is
installed it replaces, on the classes, a set of layer entry points and
``Engine.call_at`` with timing wrappers, and puts the originals back on
exit:

* every engine callback is a span charged to the layer owning the
  callback's function (module name, see :data:`MODULE_LAYERS`); a
  ``PeriodicTask`` is charged to the function it wraps, and ``Sampler``
  ticks to ``metrics``;
* the entry points in :meth:`LayerTrace._entry_points` are spans too,
  so a call from one layer into another is charged to the callee;
* ``engine.run`` itself is the root ``sim`` span (the event loop).

A layer's self time is the time inside its spans minus the time inside
their child spans. Counters are taken at the same boundaries. Install
the trace before building the stack: callbacks captured at construction
(``PeriodicTask``, completion listeners) then capture the wrappers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.api import KubeApiServer
from repro.cluster.cloud import CloudController
from repro.cluster.node import Node
from repro.cluster.scheduler import KubeScheduler
from repro.hta.estimator import ResourceEstimator
from repro.hta.operator import HtaOperator
from repro.makeflow.manager import WorkflowManager
from repro.sim.engine import Engine, PeriodicTask, ScheduledEvent
from repro.sim.tracing import MetricRecorder, Sampler
from repro.wq.dispatch import DispatchCore
from repro.wq.sharding import Foreman

#: Module prefix -> layer, first match wins (so specific before general).
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.tracing", "metrics"),
    ("repro.metrics", "metrics"),
    ("repro.sim", "sim"),
    ("repro.cluster.scheduler", "cluster.scheduler"),
    ("repro.cluster.api", "cluster.api"),
    ("repro.cluster.informer", "cluster.api"),
    ("repro.cluster.cloud", "cluster.cloud"),
    ("repro.cluster", "cluster.kubelet"),
    ("repro.wq.sharding", "wq.sharding"),
    ("repro.wq.worker", "wq.worker"),
    ("repro.wq.link", "wq.worker"),
    ("repro.wq.runtime", "wq.worker"),
    ("repro.wq", "wq.dispatch"),
    ("repro.hta.estimator", "hta.estimator"),
    ("repro.hta", "hta.operator"),
    ("repro.makeflow", "makeflow"),
)

#: Every layer a traced run reports a self time for, ``other`` last.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(l for _, l in MODULE_LAYERS)) + (
    "other",
)

#: The Foreman's aggregating reads (HTA and the accountant poll these).
FOREMAN_AGGREGATES = (
    "stats", "cores_in_use", "cores_waiting", "supplied_cores",
    "waiting_tasks", "running_tasks", "connected_workers", "idle_workers",
)
FOREMAN_PROPERTIES = ("all_done", "tasks_submitted", "available")

_PERIODIC_FIRE = PeriodicTask._fire


def layer_of_module(module: Optional[str]) -> str:
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class LayerTrace:
    """Self time and counters per layer; a context manager."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Child-time accumulators of the open spans (index 0: outside).
        self._child: List[float] = [0.0]
        self._layer_by_code: Dict[object, Optional[str]] = {}
        self._saved: List[Tuple[type, str, object]] = []

    def reset(self) -> None:
        """Forget what set-up recorded; the drive is measured alone."""
        self.self_s.clear()
        self.counts.clear()

    # ------------------------------------------------------------- spans
    def span(self, layer: str, fn: Callable, *args, **kwargs):
        child = self._child
        child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.self_s[layer] += dur - child.pop()
            child[-1] += dur

    def _fire(self, layer: str, fn: Callable, *args) -> None:
        """An engine callback, run as a span of its owning layer."""
        child = self._child
        child.append(0.0)
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            dur = time.perf_counter() - t0
            self.self_s[layer] += dur - child.pop()
            child[-1] += dur

    def callback_layer(self, fn: Callable) -> Optional[str]:
        """The layer owning callback ``fn``; None when ``fn`` is itself a
        traced entry point (it opens its own span)."""
        func = getattr(fn, "__func__", fn)
        if func is _PERIODIC_FIRE:
            fn = fn.__self__.fn
            func = getattr(fn, "__func__", fn)
        if isinstance(func, functools.partial):
            func = func.func
        # Keyed by code object: closures made per event share one entry.
        code = getattr(func, "__code__", None)
        try:
            return self._layer_by_code[code]
        except KeyError:
            pass
        if getattr(func, "_htc_traced", False):
            layer = None
        else:
            layer = layer_of_module(getattr(func, "__module__", None))
        if code is not None:
            self._layer_by_code[code] = layer
        return layer

    # ----------------------------------------------------------- patching
    def _patch(self, cls: type, name: str, value: object) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def _wrap(self, cls: type, name: str, layer: str, count: Optional[str] = None):
        """Make ``cls.name`` a span of ``layer`` (and count its calls)."""
        original = cls.__dict__[name]
        span, counts = self.span, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            return span(layer, original, *args, **kwargs)

        wrapper._htc_traced = True
        self._patch(cls, name, wrapper)

    def _wrap_property(self, cls: type, name: str, layer: str, count: str):
        prop = cls.__dict__[name]
        fget, span, counts = prop.fget, self.span, self.counts

        def getter(obj):
            counts[count] += 1
            return span(layer, fget, obj)

        self._patch(cls, name, property(getter, prop.fset, prop.fdel, prop.__doc__))

    def _entry_points(self) -> None:
        trace, span, counts = self, self.span, self.counts
        original_call_at = Engine.call_at
        fire = self._fire

        def call_at(engine, when, fn, *args):
            counts["sim.scheduled"] += 1
            layer = trace.callback_layer(fn)
            if layer is None:
                return original_call_at(engine, when, fn, *args)
            return original_call_at(engine, when, fire, layer, fn, *args)

        self._patch(Engine, "call_at", call_at)

        original_cancel = ScheduledEvent.cancel

        def cancel(event):
            if event.pending:
                counts["sim.cancelled"] += 1
            original_cancel(event)

        self._patch(ScheduledEvent, "cancel", cancel)

        # -- cluster.scheduler
        original_sync = KubeScheduler.sync

        def sync(scheduler):
            counts["cluster.scheduler.passes"] += 1
            listed = counts["cluster.api.pending_pods_calls"]
            bound = span("cluster.scheduler", original_sync, scheduler)
            if counts["cluster.api.pending_pods_calls"] == listed:
                counts["cluster.scheduler.passes_skipped"] += 1
            counts["cluster.scheduler.binds"] += bound
            return bound

        sync._htc_traced = True
        self._patch(KubeScheduler, "sync", sync)

        original_can_fit = Node.can_fit

        def can_fit(node, request):
            counts["cluster.scheduler.nodes_scanned"] += 1
            return original_can_fit(node, request)

        self._patch(Node, "can_fit", can_fit)

        # -- cluster.api
        original_list = KubeApiServer.list

        def list_(api, kind, selector=None):
            counts["cluster.api.list_calls"] += 1
            objs = span("cluster.api", original_list, api, kind, selector)
            counts["cluster.api.objects_listed"] += len(objs)
            return objs

        self._patch(KubeApiServer, "list", list_)
        self._wrap(KubeApiServer, "pending_pods", "cluster.api",
                   "cluster.api.pending_pods_calls")
        for name in ("pods", "nodes", "ready_nodes"):
            self._wrap(KubeApiServer, name, "cluster.api")
        self._wrap(KubeApiServer, "mark_modified", "cluster.api",
                   "cluster.api.writes")
        original_create = KubeApiServer.create
        original_delete = KubeApiServer.delete

        def create(api, obj):
            counts["cluster.api.writes"] += 1
            if obj.kind == "Node":
                counts["cluster.cloud.nodes_added"] += 1
            return span("cluster.api", original_create, api, obj)

        def delete(api, kind, name):
            counts["cluster.api.writes"] += 1
            if kind == "Node":
                counts["cluster.cloud.nodes_removed"] += 1
            return span("cluster.api", original_delete, api, kind, name)

        self._patch(KubeApiServer, "create", create)
        self._patch(KubeApiServer, "delete", delete)

        # -- cluster.cloud
        self._wrap(CloudController, "sync", "cluster.cloud")

        # -- wq.dispatch
        original_dispatch = DispatchCore._dispatch

        def dispatch(core):
            queued = len(core.queue)
            span("wq.dispatch", original_dispatch, core)
            if queued:
                counts["wq.dispatch.passes"] += 1
                counts["wq.dispatch.tasks_examined"] += queued
                counts["wq.dispatch.tasks_placed"] += queued - len(core.queue)
                if queued > counts["wq.dispatch.queue_max"]:
                    counts["wq.dispatch.queue_max"] = queued

        dispatch._htc_traced = True
        self._patch(DispatchCore, "_dispatch", dispatch)
        self._wrap(DispatchCore, "submit", "wq.dispatch")
        self._wrap(DispatchCore, "task_finished", "wq.dispatch")

        # -- wq.sharding
        self._wrap(Foreman, "submit", "wq.sharding")
        for name in FOREMAN_AGGREGATES:
            self._wrap(Foreman, name, "wq.sharding",
                       "wq.sharding.aggregate_calls")
        for name in FOREMAN_PROPERTIES:
            self._wrap_property(Foreman, name, "wq.sharding",
                                "wq.sharding.aggregate_calls")

        # -- hta
        self._wrap(HtaOperator, "_cycle", "hta.operator", "hta.operator.cycles")
        self._wrap(HtaOperator, "submit", "hta.operator")
        self._wrap(HtaOperator, "_master_completed", "hta.operator")
        original_estimate = ResourceEstimator.estimate

        def estimate(estimator, rsrc_init_time, running, waiting, *args, **kwargs):
            counts["hta.estimator.calls"] += 1
            counts["hta.estimator.tasks_simulated"] += len(running) + len(waiting)
            return span("hta.estimator", original_estimate, estimator,
                        rsrc_init_time, running, waiting, *args, **kwargs)

        self._patch(ResourceEstimator, "estimate", estimate)

        # -- metrics
        original_sample = Sampler._sample

        def sample(sampler):
            counts["metrics.samples"] += 1
            counts["metrics.gauge_calls"] += len(sampler._gauges)
            return span("metrics", original_sample, sampler)

        sample._htc_traced = True
        self._patch(Sampler, "_sample", sample)
        for name in ("set", "inc", "dec"):
            self._wrap(MetricRecorder, name, "metrics")

        # -- makeflow
        self._wrap(WorkflowManager, "start", "makeflow")
        self._wrap(WorkflowManager, "_task_completed", "makeflow")

    def __enter__(self) -> "LayerTrace":
        self._entry_points()
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    # ------------------------------------------------------------ report
    def metrics(
        self, wall_s: float, events: int, host_factor: float = 1.0
    ) -> Dict[str, float]:
        """Self times (raw seconds times ``host_factor``), counters and
        derived ratios, by metric name; ``wall_s`` is the raw wall time
        the spans ran in."""
        c = self.counts
        out: Dict[str, float] = {}
        attributed = 0.0
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_s"] = self.self_s[layer] * host_factor
            attributed += self.self_s[layer]
        out["other.self_s"] = max(0.0, wall_s - attributed) * host_factor
        out["trace.coverage"] = attributed / wall_s
        scheduler = "cluster.scheduler"
        for key in ("passes", "binds", "nodes_scanned"):
            out[f"{scheduler}.{key}"] = c[f"{scheduler}.{key}"]
        out[f"{scheduler}.passes_skipped_ratio"] = _ratio(
            c[f"{scheduler}.passes_skipped"], c[f"{scheduler}.passes"])
        out[f"{scheduler}.scans_per_bind"] = _ratio(
            c[f"{scheduler}.nodes_scanned"], c[f"{scheduler}.binds"])
        for key in ("list_calls", "objects_listed", "writes"):
            out[f"cluster.api.{key}"] = c[f"cluster.api.{key}"]
        for key in ("nodes_added", "nodes_removed"):
            out[f"cluster.cloud.{key}"] = c[f"cluster.cloud.{key}"]
        for key in ("passes", "tasks_examined", "tasks_placed", "queue_max"):
            out[f"wq.dispatch.{key}"] = c[f"wq.dispatch.{key}"]
        out["wq.dispatch.place_ratio"] = _ratio(
            c["wq.dispatch.tasks_placed"], c["wq.dispatch.tasks_examined"])
        out["hta.operator.cycles"] = c["hta.operator.cycles"]
        out["hta.estimator.calls"] = c["hta.estimator.calls"]
        out["hta.estimator.tasks_simulated"] = c["hta.estimator.tasks_simulated"]
        out["metrics.samples"] = c["metrics.samples"]
        out["metrics.gauge_calls"] = c["metrics.gauge_calls"]
        out["wq.sharding.aggregate_calls"] = c["wq.sharding.aggregate_calls"]
        out["sim.events"] = events
        out["sim.scheduled"] = c["sim.scheduled"]
        out["sim.cancelled_ratio"] = _ratio(c["sim.cancelled"], c["sim.scheduled"])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
