"""Metrics server: windowed per-pod CPU usage, as HPA consumes it.

Kubernetes' metrics-server scrapes kubelets every ``sample_period``
seconds and reports a short sliding-window average per pod. HPA then
computes *utilization* = usage / request, averaged across the pods behind
the scaled object. We reproduce that pipeline: instantaneous usage comes
from each pod's attached ``cpu_usage_fn`` (set by the Work Queue worker),
and consumers read :meth:`pod_usage` / :meth:`average_utilization`.

A scrape samples every running pod, but it only *reads* the pods that
changed since the previous one (see :meth:`MetricsServer.scrape`): each
window is kept as run-length samples, so a pod whose reading did not move
extends its last run without being touched.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from repro.cluster.api import KubeApiServer
from repro.cluster.pod import Pod, PodPhase
from repro.sim.engine import Engine, PeriodicTask


class MetricsServer:
    """Scrapes running pods on a fixed cadence; serves window averages.

    Scrapes are numbered from 0. ``_times`` holds the times of the
    scrapes still inside the window, the first of them numbered
    ``_first``; ``_next`` is the number the next scrape gets. A pod name
    has a window iff a running pod of that name was stored at the last
    scrape; the window is a flat run list ``[start0, value0, start1,
    value1, ...]``: ``value_i`` was sampled at every scrape from
    ``start_i`` up to the next run's start, and the last run lasts up to
    the last scrape. Samples before ``_first`` have left the window;
    runs wholly before it are trimmed when a scrape next touches the pod.
    """

    def __init__(
        self,
        engine: Engine,
        api: KubeApiServer,
        *,
        sample_period: float = 15.0,
        window: float = 60.0,
    ) -> None:
        if sample_period <= 0 or window < sample_period:
            raise ValueError(
                f"need 0 < sample_period <= window, got {sample_period}, {window}"
            )
        self.engine = engine
        self.api = api
        self.sample_period = sample_period
        self.window = window
        self._windows: Dict[str, List] = {}
        self._times: Deque[float] = deque()
        self._first = 0
        self._next = 0
        #: Pods noted since the last scrape (the API server's pod feed);
        #: None while unsubscribed (before the first scrape and after
        #: :meth:`stop`), when a scrape has to walk the store.
        self._changed: Optional[Dict] = None
        #: Running pods whose plain ``cpu_usage_fn`` announces nothing:
        #: read at every scrape, as the store walk did.
        self._polled: Dict[str, Pod] = {}
        self.scrapes = 0
        self._loop = PeriodicTask(engine, sample_period, self.scrape, start_after=0.0)

    def stop(self) -> None:
        self._loop.stop()
        if self._changed is not None:
            self.api.pod_feed.unsubscribe(self._changed)
            self._changed = None

    # --------------------------------------------------------------- scrape
    def scrape(self) -> None:
        """Sample every running pod. Pods no longer running drop out, so
        usage doesn't linger after exit.

        Only pods the feed noted (stored, deleted, phase or reading
        changed) and polled pods are read; every other window extends its
        last run to this scrape for free. A window is keyed by pod name
        and each reading depends on no other pod, so this matches a walk
        over the whole store sample for sample.
        """
        self.scrapes += 1
        now = self.engine.now
        index = self._next
        self._next = index + 1
        times = self._times
        times.append(now)
        cutoff = now - self.window
        while times[0] < cutoff:
            times.popleft()
            self._first += 1
        windows = self._windows
        polled = self._polled
        changed = self._changed
        if changed is None:
            # Nothing was noted to us: read every stored pod and every
            # window, then follow the feed.
            names = dict.fromkeys(windows)
            names.update((obj.name, None) for obj in self.api.stored("Pod"))
            self._changed = self.api.pod_feed.subscribe()
        else:
            names = dict.fromkeys(obj.name for obj in changed)
            changed.clear()
            names.update(dict.fromkeys(polled))
        stored = self.api.try_get
        for name in names:
            pod: Optional[Pod] = stored("Pod", name)  # type: ignore[assignment]
            if pod is None or pod.phase is not PodPhase.RUNNING:
                windows.pop(name, None)
                polled.pop(name, None)
                continue
            value = pod.current_cpu_usage()
            runs = windows.get(name)
            if runs is None:
                windows[name] = [index, value]
            else:
                last = runs[-1]
                if value != last or type(value) is not type(last):
                    runs.append(index)
                    runs.append(value)
                self._trim(runs)
            if pod.cpu_usage_fn is not None and not pod.usage_fed:
                polled[name] = pod
            else:
                polled.pop(name, None)

    def _trim(self, runs: List) -> None:
        """Drop the runs that ended before the window's first scrape."""
        first = self._first
        k = 0
        while k + 2 < len(runs) and runs[k + 2] <= first:
            k += 2
        if k:
            del runs[:k]

    def _samples(self, runs: List) -> Iterator[float]:
        """The window's samples, oldest first, as the scrapes took them."""
        first, end = self._first, self._next
        last = len(runs) - 2
        for i in range(0, last + 1, 2):
            lo = max(runs[i], first)
            hi = runs[i + 2] if i < last else end
            if hi > lo:
                yield from repeat(runs[i + 1], hi - lo)

    # ---------------------------------------------------------------- reads
    def pod_usage(self, pod: Pod) -> Optional[float]:
        """Window-averaged CPU usage (cores), or None if never scraped."""
        runs = self._windows.get(pod.name)
        if runs is None:
            return None
        samples = list(self._samples(runs))
        return sum(samples) / len(samples)

    def average_utilization(self, pods: Iterable[Pod]) -> Optional[float]:
        """HPA's metric: total windowed usage / total CPU request (0..1+).

        Pods without samples yet are excluded (matching HPA's treatment of
        not-yet-ready pods). Returns None when no pod has samples or the
        request total is zero.
        """
        usage = 0.0
        request = 0.0
        counted = 0
        for pod in pods:
            u = self.pod_usage(pod)
            if u is None:
                continue
            usage += u
            request += pod.spec.request.cores
            counted += 1
        if counted == 0 or request <= 0:
            return None
        return usage / request
