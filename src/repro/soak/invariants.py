"""Invariant checkers the soak harness runs at quiescence.

Each checker inspects the final state of one run (whitebox master/cluster
state plus the telemetry trace) and returns the violations it found. The
invariants are chosen to catch the failure modes chaos is most likely to
expose:

* **task conservation** — every submitted task ends exactly once, as a
  completion or an abandonment; nothing is lost, nothing runs twice into
  the ``done`` ledger (exactly-once across crashes/partitions);
* **no worker leaks** — after the final drain no live worker, running
  worker pod, or master-side registration remains;
* **monotonic resource versions** — the API server's per-kind version
  counter, as observed through a watch, never goes backwards (cache
  coherence across outages and watch drops);
* **metrics/trace consistency** — the chaos counters and the master's
  ledgers agree with the telemetry trace recorded along the way;
* **scheduler indexes** — the API server's pending-pod and free-capacity
  indexes equal what the store says, so no mutation bypassed the write
  path that keeps them (checked after every strike and at the end);
* **accounting aggregates** — RS and RIU kept by each dispatch core,
  each worker's in-use cores and CPU usage, the metrics server's scrape
  windows, the API server's node counts and its kept selector snapshots
  equal a rescan of the state they summarize (checked after every strike
  and at the end);
* **eventual quiescence** — the run actually reached a terminal state
  before its deadline (checked by the harness, reported here).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.cluster.api import KubeApiServer, WatchEvent
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.sched_index import placement_signature, unschedulable_recorded
from repro.wq.task import TaskState
from repro.wq.worker import Worker, WorkerState


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken invariant, with enough detail to start debugging."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


class VersionProbe:
    """Records per-kind resourceVersions exactly as a watcher sees them.

    Attach before the run starts; the recorded sequences are the ground
    truth for the monotonic-versions invariant (the probe receives the
    same stream every informer does, gaps from outages included).
    """

    def __init__(self, api: KubeApiServer, kinds: Sequence[str] = ("Pod", "Node")):
        self.api = api
        self.versions: Dict[str, List[int]] = {k: [] for k in kinds}
        self._handlers = {}
        for kind in kinds:
            handler = self._make_handler(kind)
            self._handlers[kind] = handler
            api.watch(kind, handler, replay_existing=False)

    def _make_handler(self, kind: str):
        def record(event: WatchEvent) -> None:
            self.versions[kind].append(event.version)

        return record

    def close(self) -> None:
        for kind, handler in self._handlers.items():
            self.api.unwatch(kind, handler)
        self._handlers = {}


# ------------------------------------------------------------- checkers
def check_task_conservation(graph, master) -> List[Violation]:
    """done ⊎ abandoned == submitted, each exactly once."""
    violations: List[Violation] = []
    submitted = {t.id for t in graph.tasks}
    done_counts = Counter(t.id for t in master.done if t.speculation_of is None)
    abandoned_counts = Counter(
        t.id for t in master.abandoned if t.speculation_of is None
    )
    dupes = sorted(tid for tid, n in done_counts.items() if n > 1)
    if dupes:
        violations.append(
            Violation(
                "task-conservation",
                f"task(s) completed more than once: {dupes[:10]}",
            )
        )
    both = sorted(set(done_counts) & set(abandoned_counts))
    if both:
        violations.append(
            Violation(
                "task-conservation",
                f"task(s) both completed and abandoned: {both[:10]}",
            )
        )
    resolved = set(done_counts) | set(abandoned_counts)
    lost = sorted(submitted - resolved)
    if lost:
        violations.append(
            Violation(
                "task-conservation",
                f"{len(lost)} task(s) neither completed nor abandoned: {lost[:10]}",
            )
        )
    phantom = sorted(resolved - submitted)
    if phantom:
        violations.append(
            Violation(
                "task-conservation",
                f"task(s) resolved but never submitted: {phantom[:10]}",
            )
        )
    return violations


def check_no_worker_leaks(runtime, provisioner, master) -> List[Violation]:
    """After the final drain: no live workers, pods, or registrations."""
    violations: List[Violation] = []
    live = runtime.live_workers()
    if live:
        violations.append(
            Violation(
                "worker-leak",
                f"{len(live)} worker(s) still live after drain: "
                f"{[w.name for w in live[:5]]}",
            )
        )
    pods = provisioner.live_pods()
    if pods:
        violations.append(
            Violation(
                "worker-leak",
                f"{len(pods)} worker pod(s) not terminal after drain: "
                f"{[p.name for p in pods[:5]]}",
            )
        )
    stale = [
        name
        for name, w in master.workers.items()
        if w.state.name in ("STOPPED", "KILLED")
    ]
    if stale:
        violations.append(
            Violation(
                "worker-leak",
                f"master still lists dead worker(s): {stale[:5]}",
            )
        )
    return violations


def check_version_monotonic(probe: VersionProbe) -> List[Violation]:
    """Observed resourceVersions strictly increase per kind."""
    violations: List[Violation] = []
    for kind, versions in probe.versions.items():
        for i in range(1, len(versions)):
            if versions[i] <= versions[i - 1]:
                violations.append(
                    Violation(
                        "version-monotonic",
                        f"{kind} watch saw version {versions[i]} after "
                        f"{versions[i - 1]} (index {i})",
                    )
                )
                break  # one per kind is enough to flag the stream
    return violations


def check_scheduler_indexes(api: KubeApiServer) -> List[Violation]:
    """The kube-scheduler's indexes agree with the API server's store.

    The pending index holds exactly the pods with ``phase is PENDING and
    node is None``, in list order, each in the bucket of its placement
    signature and flagged fresh iff it has no trailing FailedScheduling
    event. Every stored node sits in the free-capacity index under a key
    equal to a recomputed ``(free().cores, name)``. A mutation that
    bypassed the write path fails here instead of silently changing
    binds.
    """
    violations: List[Violation] = []
    literal = [
        p for p in api.pods() if p.phase is PodPhase.PENDING and p.node is None
    ]
    indexed = list(api.pending_index)
    if indexed != literal:
        violations.append(
            Violation(
                "scheduler-index",
                f"pending index {[p.name for p in indexed][:8]} != pending pods "
                f"{[p.name for p in literal][:8]} ({len(indexed)} vs {len(literal)})",
            )
        )
    bucketed = 0
    for bucket in api.pending_index.buckets():
        bucketed += len(bucket.pods)
        misfiled = [p.name for p in bucket.pods if placement_signature(p) != bucket.signature]
        fresh = [p for p in bucket.pods if not unschedulable_recorded(p)]
        if misfiled or bucket.fresh != fresh:
            violations.append(
                Violation(
                    "scheduler-index",
                    f"bucket {bucket.signature}: misfiled {misfiled}, fresh "
                    f"{[p.name for p in bucket.fresh]} != {[p.name for p in fresh]}",
                )
            )
    if bucketed != len(indexed):
        violations.append(
            Violation(
                "scheduler-index",
                f"{bucketed} bucketed pods for {len(indexed)} indexed",
            )
        )
    entries = api.capacity_index.entries()
    expected = sorted(
        (((n.free().cores, n.name), n) for n in api.nodes()), key=lambda e: e[0]
    )
    if entries != expected:
        stale = [
            f"{node.name}@{key[0]!r}" for key, node in entries
            if key != (node.free().cores, node.name)
        ]
        violations.append(
            Violation(
                "scheduler-index",
                f"free-capacity index ({len(entries)} nodes) != store "
                f"({len(expected)} nodes); stale keys {stale[:8]}",
            )
        )
    return violations


def check_accounting_aggregates(stack) -> List[Violation]:
    """The accounting gauges' maintained values equal their rescans.

    ``stack`` carries ``master`` (a master or a foreman) and ``cluster``,
    and optionally ``runtime``. Every dispatch core's ``supplied_cores``
    / ``cores_in_use`` must equal the fold over its worker table with
    float ``==``, reading each run's own state; every worker's
    maintained ``cores_in_use`` / ``cpu_usage`` must be ``repr``-equal to
    the fold over its runs; every metrics-server window the next scrape
    would not touch must end in the reading a scrape would take now; the API
    server's node counts, as the cluster and the cloud controller serve
    them, must equal a filter over the stored nodes; and every kept
    ``list(kind, selector)`` snapshot must equal the selector filter over
    the kind's full list. Each core's ``cores_waiting`` must be
    ``repr``-equal to the fold over its queue, and every kept
    ``list_pending`` view must equal the pending filter over the Pod
    list. A mutation that bypassed a write path (a flag set behind a
    setter, a worker-table edit without its refresh, a relabel after
    create, a queue edit behind its totals) fails here.
    """
    violations: List[Violation] = []

    def differs(name: str, maintained: object, literal: object) -> None:
        if maintained != literal:
            violations.append(
                Violation(
                    "accounting-aggregates",
                    f"{name} = {maintained!r}, rescan = {literal!r}",
                )
            )

    master = stack.master
    seen: Dict[int, Worker] = {}
    for core in getattr(master, "shards", None) or [master]:
        workers = core.workers.values()
        seen.update((id(w), w) for w in workers)
        differs(
            f"{core.name}.supplied_cores",
            core.supplied_cores(),
            sum(
                w.capacity.cores
                for w in workers
                if w.state in (WorkerState.READY, WorkerState.DRAINING)
                and not w.quarantined
            ),
        )
        differs(
            f"{core.name}.cores_in_use",
            core.cores_in_use(),
            sum(
                sum(
                    min(run.task.footprint.cores, run.allocation.cores)
                    for run in w.runs.values()
                    if run.state is TaskState.RUNNING
                )
                for w in workers
            ),
        )
        differs(
            f"{core.name}.cores_waiting",
            repr(core.cores_waiting()),
            repr(sum(t.footprint.cores for t in core.queue)),
        )
    runtime = getattr(stack, "runtime", None)
    if runtime is not None:
        seen.update((id(w), w) for w in runtime.workers.values())
    for w in seen.values():
        runs = w.runs.values()
        differs(
            f"{w.name}.cores_in_use",
            repr(w.cores_in_use()),
            repr(
                sum(
                    min(run.task.footprint.cores, run.allocation.cores)
                    for run in runs
                    if run.state is TaskState.RUNNING
                )
            ),
        )
        differs(
            f"{w.name}.cpu_usage",
            repr(w.cpu_usage()),
            repr(
                sum(
                    min(run.task.footprint.cores, run.allocation.cores)
                    * run.task.cpu_fraction
                    if run.state is TaskState.RUNNING
                    else 0.0
                    for run in runs
                )
            ),
        )
    cluster = stack.cluster
    api = cluster.api
    metrics = getattr(cluster, "metrics", None)
    if metrics is not None:
        violations.extend(
            Violation("accounting-aggregates", detail)
            for detail in _stale_scrape_windows(metrics, api)
        )
    live = [n for n in api.nodes() if not n.deleted]
    ready = [n for n in live if n.ready]
    differs("cluster.node_count", cluster.node_count(), len(ready))
    differs(
        "cluster.spot_node_count",
        cluster.spot_node_count(),
        len([n for n in ready if n.preemptible]),
    )
    cloud = cluster.cloud
    spot = len([n for n in live if n.preemptible])
    differs("cloud.node_count", cloud.node_count(), len(live))
    differs("cloud.ondemand_node_count", cloud.ondemand_node_count(), len(live) - spot)
    differs("cloud.spot_node_count", cloud.spot_node_count(), spot)
    for kind in api.KINDS:
        every = api.list(kind)
        for selector in api.selectors(kind):
            kept = api.list(kind, selector)
            want = [o for o in every if o.meta.matches(selector)]
            if len(kept) != len(want) or any(a is not b for a, b in zip(kept, want)):
                violations.append(
                    Violation(
                        "accounting-aggregates",
                        f"list({kind}, {selector}) = {[o.name for o in kept][:8]}, "
                        f"rescan = {[o.name for o in want][:8]}",
                    )
                )
    pods = api.list("Pod")
    for selector in api.pending_views():
        kept = api.list_pending(selector)
        want = [
            p for p in pods
            if p.meta.matches(selector) and p.phase is PodPhase.PENDING
        ]
        if len(kept) != len(want) or any(a is not b for a, b in zip(kept, want)):
            violations.append(
                Violation(
                    "accounting-aggregates",
                    f"list_pending({selector}) = {[p.name for p in kept][:8]}, "
                    f"rescan = {[p.name for p in want][:8]}",
                )
            )
    return violations


def _stale_scrape_windows(metrics, api: KubeApiServer) -> List[str]:
    """Where the metrics server's windows disagree with the store.

    A pod the feed noted since the last scrape, or whose plain usage
    callable is polled, is read by the next scrape and skipped here.
    Every other stored pod must have a window iff it is running, ending
    in the reading a scrape would take now; every window must belong to
    a stored pod, and its runs must start at increasing scrape numbers.
    """
    if metrics._changed is None:
        return []  # the next scrape walks the whole store
    out: List[str] = []
    pending = {p.name for p in metrics._changed}
    pending.update(metrics._polled)
    windows = metrics._windows
    for pod in api.stored("Pod"):
        name = pod.name
        if name in pending or not isinstance(pod, Pod):
            continue
        runs = windows.get(name)
        if pod.phase is not PodPhase.RUNNING:
            if runs is not None:
                out.append(f"window of {name} outlived its {pod.phase.value} pod")
            continue
        reading = pod.current_cpu_usage()
        if runs is None:
            out.append(f"running pod {name} has no window")
        elif repr(runs[-1]) != repr(reading):
            out.append(f"window of {name} ends at {runs[-1]!r}, pod reads {reading!r}")
    for name, runs in windows.items():
        if name not in pending and api.try_get("Pod", name) is None:
            out.append(f"window of {name} outlived its deleted pod")
        starts = runs[0::2]
        if starts != sorted(set(starts)) or starts[-1] >= metrics._next:
            out.append(f"window of {name} has runs starting at {starts}")
    if len(metrics._times) != metrics._next - metrics._first:
        out.append(
            f"{len(metrics._times)} scrape times kept for scrapes "
            f"{metrics._first}..{metrics._next - 1}"
        )
    return out


def check_journal_replay(master) -> List[Violation]:
    """Replaying the journal reconstructs the quiesced master exactly.

    At quiescence the log must fold back into the live ledgers
    bit-for-bit: the same completions in the same order, the same
    abandonments, and nothing left ready or unclaimed — the property
    crash recovery stakes its correctness on, checked here after every
    hostile schedule (crashes and partitions included)."""
    violations: List[Violation] = []
    state = master.journal.replay(completions=True)
    done_ids = [t.id for t in master.done if t.speculation_of is None]
    replayed_done = [t.id for t, _ in state.completions]
    if replayed_done != done_ids:
        extra = [i for i in replayed_done if i not in done_ids]
        missing = [i for i in done_ids if i not in replayed_done]
        violations.append(
            Violation(
                "journal-replay",
                f"replayed completions disagree with done ledger "
                f"(missing: {missing[:5]}, phantom: {extra[:5]}, "
                f"order_only={sorted(replayed_done) == sorted(done_ids)})",
            )
        )
    abandoned_ids = [t.id for t in master.abandoned]
    replayed_abandoned = [t.id for t in state.abandoned]
    if replayed_abandoned != abandoned_ids:
        violations.append(
            Violation(
                "journal-replay",
                f"replayed abandonments {replayed_abandoned[:5]} disagree "
                f"with ledger {abandoned_ids[:5]}",
            )
        )
    if state.ready:
        violations.append(
            Violation(
                "journal-replay",
                f"{len(state.ready)} task(s) replay as ready after "
                f"quiescence: {[t.id for t in state.ready[:5]]}",
            )
        )
    if state.unclaimed:
        violations.append(
            Violation(
                "journal-replay",
                f"{len(state.unclaimed)} task(s) replay as unclaimed after "
                f"quiescence: {sorted(state.unclaimed)[:5]}",
            )
        )
    return violations


def check_migration_protocol(master) -> List[Violation]:
    """Checkpoint/restore migrations obeyed their safety contract.

    Three properties, read straight off the journal: banked progress is
    monotonically nondecreasing per task (a later checkpoint never
    forgets work an earlier one banked); no checkpoint banks more
    execute-seconds than the task has; and resumes are at-most-once — a
    task is never dispatched (``dispatch``/``migrate_in``) while a prior
    attempt is still outstanding, which is the double-resume the
    handshake's stale-guards exist to prevent.
    """
    violations: List[Violation] = []
    last_progress: Dict[int, float] = {}
    in_flight: Dict[int, str] = {}
    for rec in master.journal.records:
        if rec.task is None:
            continue  # worker-scoped record (quarantine/unquarantine)
        tid = rec.task.id
        if rec.op == "checkpoint":
            progress = rec.progress if rec.progress is not None else 0.0
            if progress < last_progress.get(tid, 0.0) - 1e-9:
                violations.append(
                    Violation(
                        "migration-protocol",
                        f"task {tid} checkpoint progress regressed "
                        f"{last_progress[tid]:.6g} -> {progress:.6g}",
                    )
                )
            if progress > rec.task.execute_s + 1e-9:
                violations.append(
                    Violation(
                        "migration-protocol",
                        f"task {tid} banked {progress:.6g}s of progress, "
                        f"more than its {rec.task.execute_s:.6g}s of work",
                    )
                )
            last_progress[tid] = max(last_progress.get(tid, 0.0), progress)
        elif rec.op in ("dispatch", "migrate_in"):
            prior = in_flight.get(tid)
            if prior is not None:
                violations.append(
                    Violation(
                        "migration-protocol",
                        f"task {tid} dispatched ({rec.op}) while a prior "
                        f"attempt ({prior}) was still outstanding — "
                        f"duplicate resume",
                    )
                )
            in_flight[tid] = rec.op
        elif rec.op in ("retry", "migrate_out", "complete", "abandon"):
            in_flight.pop(tid, None)
    return violations


def check_failover_protocol(master) -> List[Violation]:
    """Shard failover obeyed its safety contract.

    Read off the *merged* journal (``master`` is the foreman): every
    re-home is a FAILOVER_OUT/FAILOVER_IN pair — task conservation
    across shard loss, the same count on both sides per task; re-homed
    tasks resume at most once — a task is never dispatched
    (``dispatch``/``migrate_in``) while a prior attempt is still
    outstanding, counting failover moves as the *same* execution
    (an ``unclaimed`` placement keeps the original attempt outstanding
    on its new shard; a ``ready`` placement parks it); and no task
    completes twice. The OUT/IN walk uses per-task counters, not a
    flag, because a merged log may fold a destination's IN before the
    dead shard's OUT at the same timestamp. "No task stranded after
    grace + failover" is covered by :func:`check_journal_replay` on the
    same merged journal (nothing left ready or unclaimed at
    quiescence) plus task conservation.
    """
    violations: List[Violation] = []
    outs: Dict[int, int] = {}
    ins: Dict[int, int] = {}
    completes: Dict[int, int] = {}
    outstanding: Dict[int, str] = {}
    for rec in master.journal.records:
        if rec.task is None:
            continue  # worker-scoped record (quarantine/unquarantine)
        tid = rec.task.id
        if rec.op == "failover_out":
            outs[tid] = outs.get(tid, 0) + 1
            if outs[tid] > ins.get(tid, 0):
                outstanding.pop(tid, None)
        elif rec.op == "failover_in":
            ins[tid] = ins.get(tid, 0) + 1
            if rec.placement == "unclaimed":
                # The original execution survives the move: its worker
                # may reattach and finish it on the new shard.
                outstanding[tid] = "failover_in"
            else:
                outstanding.pop(tid, None)
        elif rec.op in ("dispatch", "migrate_in"):
            prior = outstanding.get(tid)
            if prior is not None:
                violations.append(
                    Violation(
                        "failover-protocol",
                        f"task {tid} dispatched ({rec.op}) while a prior "
                        f"attempt ({prior}) was still outstanding — a "
                        f"re-homed task resumed twice",
                    )
                )
            outstanding[tid] = rec.op
        elif rec.op in ("retry", "migrate_out", "abandon"):
            outstanding.pop(tid, None)
        elif rec.op == "complete":
            completes[tid] = completes.get(tid, 0) + 1
            outstanding.pop(tid, None)
    for tid in sorted(set(outs) | set(ins)):
        if outs.get(tid, 0) != ins.get(tid, 0):
            violations.append(
                Violation(
                    "failover-protocol",
                    f"task {tid} has {outs.get(tid, 0)} FAILOVER_OUT but "
                    f"{ins.get(tid, 0)} FAILOVER_IN record(s) — a re-home "
                    f"lost or duplicated the task",
                )
            )
    doubled = sorted(tid for tid, n in completes.items() if n > 1)
    if doubled:
        violations.append(
            Violation(
                "failover-protocol",
                f"task(s) completed more than once in the merged journal: "
                f"{doubled[:10]}",
            )
        )
    return violations


def check_integrity_protocol(master) -> List[Violation]:
    """Result verification and quarantine obeyed their safety contract.

    Read off the final ledgers and the journal: with verification on, no
    corrupted payload ever reached COMPLETE (zero corrupted completes,
    and no done task still carries the corruption ground-truth flag);
    the QUARANTINE/UNQUARANTINE journal records agree with the master's
    counters and strictly alternate per worker (a worker is never
    condemned twice without re-admission in between)."""
    violations: List[Violation] = []
    if master.verify:
        if master.corrupted_completes:
            violations.append(
                Violation(
                    "integrity-protocol",
                    f"{master.corrupted_completes} corrupted result(s) "
                    f"reached COMPLETE despite verification",
                )
            )
        tainted = sorted(
            t.id
            for t in master.done
            if t.speculation_of is None and t.payload_corrupt
        )
        if tainted:
            violations.append(
                Violation(
                    "integrity-protocol",
                    f"done task(s) still flagged corrupt: {tainted[:10]}",
                )
            )
    quarantine_recs = unquarantine_recs = 0
    condemned: Dict[str, bool] = {}
    for rec in master.journal.records:
        if rec.op == "quarantine":
            quarantine_recs += 1
            if condemned.get(rec.worker):
                violations.append(
                    Violation(
                        "integrity-protocol",
                        f"worker {rec.worker} quarantined twice without "
                        f"an intervening unquarantine",
                    )
                )
            condemned[rec.worker] = True
        elif rec.op == "unquarantine":
            unquarantine_recs += 1
            if not condemned.get(rec.worker):
                violations.append(
                    Violation(
                        "integrity-protocol",
                        f"worker {rec.worker} unquarantined while not "
                        f"quarantined",
                    )
                )
            condemned[rec.worker] = False
    if quarantine_recs != master.quarantines:
        violations.append(
            Violation(
                "integrity-protocol",
                f"quarantine counter {master.quarantines} != "
                f"{quarantine_recs} QUARANTINE journal records",
            )
        )
    if unquarantine_recs != master.unquarantines:
        violations.append(
            Violation(
                "integrity-protocol",
                f"unquarantine counter {master.unquarantines} != "
                f"{unquarantine_recs} UNQUARANTINE journal records",
            )
        )
    return violations


def check_trace_consistency(master, chaos, tracer) -> List[Violation]:
    """Counters, ledgers, and the trace tell the same story."""
    violations: List[Violation] = []
    if not tracer.enabled:
        return violations
    events = list(tracer.events)
    complete_ids = {
        e.attrs.get("task_id") for e in events if e.name == "task.complete"
    }
    abandon_ids = {
        e.attrs.get("task_id") for e in events if e.name == "task.abandon"
    }
    done_ids = {t.id for t in master.done if t.speculation_of is None}
    if done_ids != complete_ids:
        missing = sorted(done_ids - complete_ids)
        extra = sorted(complete_ids - done_ids)
        violations.append(
            Violation(
                "trace-consistency",
                f"done ledger vs task.complete trace mismatch "
                f"(untraced: {missing[:5]}, phantom: {extra[:5]})",
            )
        )
    abandoned_ids = {t.id for t in master.abandoned if t.speculation_of is None}
    if abandoned_ids != abandon_ids:
        violations.append(
            Violation(
                "trace-consistency",
                f"abandoned ledger ({sorted(abandoned_ids)[:5]}…) disagrees "
                f"with task.abandon trace ({sorted(abandon_ids)[:5]}…)",
            )
        )
    if chaos is not None:
        traced_preemptions = sum(1 for e in events if e.name == "chaos.preemption")
        if chaos.preemptions_total != traced_preemptions:
            violations.append(
                Violation(
                    "trace-consistency",
                    f"preemptions counter {chaos.preemptions_total} != "
                    f"{traced_preemptions} chaos.preemption trace events",
                )
            )
        traced_partitions = sum(1 for e in events if e.name == "chaos.partition")
        if chaos.partition_windows != traced_partitions:
            violations.append(
                Violation(
                    "trace-consistency",
                    f"partition counter {chaos.partition_windows} != "
                    f"{traced_partitions} chaos.partition trace events",
                )
            )
        traced_migrations = sum(1 for e in events if e.name == "chaos.migrate")
        if chaos.migrations_injected != traced_migrations:
            violations.append(
                Violation(
                    "trace-consistency",
                    f"migrate counter {chaos.migrations_injected} != "
                    f"{traced_migrations} chaos.migrate trace events",
                )
            )
        traced_corruptions = sum(1 for e in events if e.name == "chaos.corrupt")
        if chaos.corruptions_injected != traced_corruptions:
            violations.append(
                Violation(
                    "trace-consistency",
                    f"corrupt counter {chaos.corruptions_injected} != "
                    f"{traced_corruptions} chaos.corrupt trace events",
                )
            )
        traced_black_holes = sum(
            1 for e in events if e.name == "chaos.black_hole"
        )
        if chaos.black_holes_injected != traced_black_holes:
            violations.append(
                Violation(
                    "trace-consistency",
                    f"black-hole counter {chaos.black_holes_injected} != "
                    f"{traced_black_holes} chaos.black_hole trace events",
                )
            )
        traced_shard_crashes = sum(
            1 for e in events if e.name == "chaos.shard_crash"
        )
        if chaos.shard_crashes != traced_shard_crashes:
            violations.append(
                Violation(
                    "trace-consistency",
                    f"shard-crash counter {chaos.shard_crashes} != "
                    f"{traced_shard_crashes} chaos.shard_crash trace events",
                )
            )
    return violations
