"""The metrics server's scrape as a literal store walk, kept as a test oracle.

Before the pod change feed, every scrape walked the whole Pod store,
appended ``(now, usage)`` to the deque of every running pod's name,
trimmed it to the window, and dropped every other name; reads averaged
the deque. :class:`LiteralMetricsServer` keeps ``scrape``, ``pod_usage``
and ``average_utilization`` verbatim. It has no scrape loop of its own:
a property test calls :meth:`LiteralMetricsServer.scrape` at the same
instants as the real server's, so both see the same store.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional, Tuple

from repro.cluster.api import KubeApiServer
from repro.cluster.pod import Pod, PodPhase
from repro.sim.engine import Engine


class LiteralMetricsServer:
    """``MetricsServer`` as it scraped before the change feed."""

    def __init__(self, engine: Engine, api: KubeApiServer, *, window: float = 60.0) -> None:
        self.engine = engine
        self.api = api
        self.window = window
        self._samples: Dict[str, Deque[Tuple[float, float]]] = {}
        self.scrapes = 0

    # --------------------------------------------------------------- scrape
    def scrape(self) -> None:
        """Sample every running pod in one pass over the store. Pods no
        longer running drop out, so usage doesn't linger after exit; a
        pod's reading depends on no other pod, so store order is fine."""
        self.scrapes += 1
        now = self.engine.now
        cutoff = now - self.window
        previous = self._samples
        samples: Dict[str, Deque[Tuple[float, float]]] = {}
        pods: Iterable[Pod] = self.api.stored("Pod")  # type: ignore[assignment]
        for pod in pods:
            if pod.phase is not PodPhase.RUNNING:
                continue
            q = previous.get(pod.name)
            if q is None:
                q = deque()
            q.append((now, pod.current_cpu_usage()))
            while q and q[0][0] < cutoff:
                q.popleft()
            samples[pod.name] = q
        self._samples = samples

    # ---------------------------------------------------------------- reads
    def pod_usage(self, pod: Pod) -> Optional[float]:
        """Window-averaged CPU usage (cores), or None if never scraped."""
        q = self._samples.get(pod.name)
        if not q:
            return None
        return sum(v for _, v in q) / len(q)

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
