"""The fair-share link as a per-stream loop, kept as a test oracle.

This is :mod:`repro.wq.link` before the one-rate representation: every
:class:`Transfer` carries its own ``remaining_mb`` and ``rate_mbps``, and
each start, cancel and completion settles, water-fills and scans for the
next completion stream by stream. It is kept verbatim, plus the livelock
rule the fast link also applies (a completion event that finishes nothing
completes every transfer whose ETA would not advance the clock), so a
property test can drive both links through the same histories and
demand equal floats.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.tracing import StepSeries

_transfer_ids = itertools.count(1)

TransferCallback = Callable[["Transfer"], None]


class Transfer:
    """An in-flight data movement over a :class:`Link`."""

    __slots__ = (
        "id",
        "label",
        "size_mb",
        "remaining_mb",
        "rate_cap_mbps",
        "rate_mbps",
        "start_time",
        "finish_time",
        "on_complete",
        "cancelled",
    )

    def __init__(
        self,
        label: str,
        size_mb: float,
        rate_cap_mbps: Optional[float],
        on_complete: Optional[TransferCallback],
        start_time: float,
    ) -> None:
        self.id = next(_transfer_ids)
        self.label = label
        self.size_mb = size_mb
        self.remaining_mb = size_mb
        self.rate_cap_mbps = rate_cap_mbps
        self.rate_mbps = 0.0
        self.start_time = start_time
        self.finish_time: Optional[float] = None
        self.on_complete = on_complete
        self.cancelled = False

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.finish_time is None else self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Transfer #{self.id} {self.label!r} {self.remaining_mb:.1f}/{self.size_mb:.1f}MB @{self.rate_mbps:.1f}MB/s>"


class Link:
    """A shared link of fixed capacity with max-min fair allocation.

    ``per_stream_overhead`` models protocol/TCP inefficiency under many
    concurrent streams: with ``n`` active transfers the effective
    aggregate capacity is ``capacity / (1 + c·(n−1))``. The paper's §III-A
    observes exactly this ("extra network overheads" when many workers
    share the master's egress); 0 disables it.
    """

    def __init__(
        self,
        engine: Engine,
        capacity_mbps: float,
        name: str = "master-egress",
        *,
        per_stream_overhead: float = 0.0,
    ):
        if capacity_mbps <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity_mbps}")
        if per_stream_overhead < 0:
            raise ValueError("per_stream_overhead must be non-negative")
        self.engine = engine
        self.capacity_mbps = capacity_mbps
        self.per_stream_overhead = per_stream_overhead
        self.name = name
        self._active: List[Transfer] = []
        self._last_update = engine.now
        self._completion_event: Optional[ScheduledEvent] = None
        self.bytes_moved_mb = 0.0
        self.transfers_completed = 0
        #: Instantaneous aggregate throughput (MB/s) as a step function.
        self.throughput = StepSeries(f"{name}.throughput", 0.0)

    # ---------------------------------------------------------------- start
    def start_transfer(
        self,
        label: str,
        size_mb: float,
        *,
        rate_cap_mbps: Optional[float] = None,
        on_complete: Optional[TransferCallback] = None,
    ) -> Transfer:
        """Begin a transfer; ``on_complete`` fires when it finishes.

        Zero-size transfers complete at the current instant (via the event
        queue, preserving callback ordering guarantees).
        """
        if size_mb < 0:
            raise ValueError(f"transfer size must be non-negative, got {size_mb}")
        if rate_cap_mbps is not None and rate_cap_mbps <= 0:
            raise ValueError(f"rate cap must be positive, got {rate_cap_mbps}")
        t = Transfer(label, size_mb, rate_cap_mbps, on_complete, self.engine.now)
        if size_mb == 0:
            t.finish_time = self.engine.now
            self.transfers_completed += 1
            if on_complete is not None:
                self.engine.call_soon(on_complete, t)
            return t
        self._settle()
        self._active.append(t)
        self._replan()
        return t

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer (worker killed); no callback fires."""
        if transfer.done or transfer.cancelled:
            return
        transfer.cancelled = True
        self._settle()
        if transfer in self._active:
            self._active.remove(transfer)
        self._replan()

    # ------------------------------------------------------------- internals
    def _settle(self) -> None:
        """Account progress accrued since the last re-plan."""
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for t in self._active:
                moved = t.rate_mbps * dt
                t.remaining_mb = max(0.0, t.remaining_mb - moved)
                self.bytes_moved_mb += moved
        self._last_update = now

    def _replan(self) -> None:
        """Recompute fair shares and re-arm the next completion event."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._active:
            self.throughput.record(self.engine.now, 0.0)
            return
        self._allocate_rates()
        self.throughput.record(self.engine.now, sum(t.rate_mbps for t in self._active))
        # Only the earliest completion needs an event; later ones are
        # re-planned when it fires.
        next_t, next_finish = None, math.inf
        for t in self._active:
            if t.rate_mbps <= 0:
                continue
            eta = t.remaining_mb / t.rate_mbps
            if eta < next_finish:
                next_finish, next_t = eta, t
        if next_t is not None:
            self._completion_event = self.engine.call_in(next_finish, self._on_completion)

    def effective_capacity(self, n_active: int) -> float:
        """Aggregate capacity available to ``n_active`` concurrent streams."""
        if n_active <= 0:
            return self.capacity_mbps
        return self.capacity_mbps / (1.0 + self.per_stream_overhead * (n_active - 1))

    def _allocate_rates(self) -> None:
        """Water-filling max-min fairness under per-transfer caps."""
        remaining_capacity = self.effective_capacity(len(self._active))
        # Start by treating everyone as uncapped; iteratively freeze
        # transfers whose cap is below the current equal share.
        pending = list(self._active)
        frozen: Dict[int, float] = {}
        while True:
            free = [t for t in pending if t.id not in frozen]
            if not free:
                break
            share = remaining_capacity / len(free)
            newly_frozen = [
                t for t in free if t.rate_cap_mbps is not None and t.rate_cap_mbps < share
            ]
            if not newly_frozen:
                for t in free:
                    frozen[t.id] = share
                break
            for t in newly_frozen:
                assert t.rate_cap_mbps is not None
                frozen[t.id] = t.rate_cap_mbps
                remaining_capacity -= t.rate_cap_mbps
            remaining_capacity = max(0.0, remaining_capacity)
        for t in self._active:
            t.rate_mbps = frozen.get(t.id, 0.0)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._settle()
        finished = [t for t in self._active if t.remaining_mb <= 1e-9]
        if not finished:
            # Far from t=0 a residual can exceed 1e-9 MB while its ETA
            # rounds to ``now``: finish what the clock cannot separate.
            now = self.engine.now
            finished = [
                t
                for t in self._active
                if t.rate_mbps > 0 and now + t.remaining_mb / t.rate_mbps == now
            ]
        for t in finished:
            self._active.remove(t)
            t.remaining_mb = 0.0
            t.finish_time = self.engine.now
            self.transfers_completed += 1
        self._replan()
        for t in finished:
            if t.on_complete is not None:
                t.on_complete(t)

    # ---------------------------------------------------------------- reads
    @property
    def active_count(self) -> int:
        return len(self._active)

    def current_rate_of(self, transfer: Transfer) -> float:
        return transfer.rate_mbps if transfer in self._active else 0.0

    def mean_throughput(self, t0: float, t1: float) -> float:
        """Time-averaged aggregate throughput over [t0, t1] (MB/s)."""
        return self.throughput.mean(t0, t1)

    def busy_seconds(self, t0: float, t1: float) -> float:
        """Total time within [t0, t1] with at least one active transfer."""
        busy = 0.0
        series = self.throughput
        t, v = t0, series.value_at(t0)
        idx = bisect.bisect_right(series.times, t0)
        while idx < len(series.times) and series.times[idx] < t1:
            nt = series.times[idx]
            if v > 0:
                busy += nt - t
            t, v = nt, series.values[idx]
            idx += 1
        if v > 0:
            busy += t1 - t
        return busy

    def mean_active_throughput(self, t0: float, t1: float) -> float:
        """Mean throughput *while transferring* — the paper's fig-4
        "average bandwidth" (idle periods excluded)."""
        busy = self.busy_seconds(t0, t1)
        if busy <= 0:
            return 0.0
        return self.throughput.integrate(t0, t1) / busy

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name!r} cap={self.capacity_mbps}MB/s active={len(self._active)}>"
