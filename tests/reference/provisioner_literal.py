"""HTA's fleet reads as per-cycle scans, kept as a test oracle.

Before the fleet indexes, every scale-down cycle relisted the pod
runtime's workers and ranked them, and every planning cycle counted the
master's live and idle workers by scanning them. The functions below are
those reads, verbatim apart from taking their objects as arguments:

* :func:`drain_order` is ``WorkerProvisioner.drain_workers``'s choice
  (the relist, the READY/CONNECTING filter and ``heapq.nsmallest``),
  without draining anything;
* :func:`live_and_idle` is ``HtaOperator.plan_once``'s ``live`` and
  ``idle`` (and ``_emit_decision``'s, which read ``Worker.idle``);
* :func:`pool_size` is ``PredictiveScaler.pool_size``.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.wq.worker import Worker, WorkerState


def drain_order(runtime, count: int) -> List[Worker]:
    """The workers ``drain_workers(count)`` drains, in drain order."""
    candidates = [
        w
        for w in runtime.live_workers()
        if w.state in (WorkerState.READY, WorkerState.CONNECTING)
    ]
    # Idle first, then fewest running tasks, then youngest; ties keep
    # live_workers order (nsmallest is sorted(...)[:count], stably).
    return heapq.nsmallest(
        count, candidates, key=lambda w: (len(w.runs), -(w.connected_time or 0.0))
    )


def live_and_idle(master) -> Tuple[int, int]:
    """Algorithm 1's supply inputs: READY unquarantined workers, and
    those of them running nothing."""
    live = [
        w
        for w in master.connected_workers()
        if w.state is WorkerState.READY and not w.quarantined
    ]
    return len(live), sum(1 for w in live if w.idle)


def pool_size(provisioner) -> int:
    """Pending pods plus live, non-draining workers."""
    pending = len(provisioner.pending_pods())
    live = sum(
        1
        for w in provisioner.runtime.live_workers()
        if w.state in (WorkerState.CONNECTING, WorkerState.READY)
    )
    return pending + live
