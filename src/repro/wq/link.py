"""The master's egress network link with max-min fair sharing.

§III-A's sizing trade-off hinges on this: "the master's egress network
bandwidth is fixed, [so] the fine-grained configuration has to share
limited bandwidth between more workers with more data movements". We
model one :class:`Link` of fixed capacity; every active :class:`Transfer`
receives a max-min fair share, computed by water-filling over optional
per-transfer rate caps (a worker's node NIC). The link re-plans on every
membership change, settling accrued progress first, so completion times
are exact for piecewise-constant rates.

The active transfers live in flat lists in start order: the transfers
themselves and the MB each has left as of the last settle. A ``{cap:
count}`` tally says how many distinct caps are active. With one cap
(every stream behind the same NIC, or none capped) water-filling ends in
one round, so every stream runs at one scalar rate and settling, the
throughput sum and the next-completion scan are single passes over the
remaining-MB list. Mixed caps fall back to the round-by-round
water-filling into a parallel rates list. Both paths perform the same
float operations in the same order as the per-stream loop they replace
(``tests/reference/link_literal.py``), so results are bit-identical.

The link also records a utilization step-series, from which fig 4's
"average bandwidth" column is computed.
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from itertools import compress, count, repeat
from operator import add, attrgetter
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.tracing import StepSeries

_transfer_ids = count(1)
_transfer_id = attrgetter("id")

TransferCallback = Callable[["Transfer"], None]

#: A transfer with at most this much left (MB) has finished.
_DONE_MB = 1e-9


class Transfer:
    """An in-flight data movement over a :class:`Link`.

    While the transfer is active, ``remaining_mb`` (as of the link's last
    settle) and ``rate_mbps`` are read from the link; once it finishes or
    is cancelled they keep their last values.
    """

    __slots__ = (
        "id",
        "label",
        "size_mb",
        "rate_cap_mbps",
        "start_time",
        "finish_time",
        "on_complete",
        "cancelled",
        "_link",
        "_remaining_mb",
        "_rate_mbps",
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
        self.rate_cap_mbps = rate_cap_mbps
        self.start_time = start_time
        self.finish_time: Optional[float] = None
        self.on_complete = on_complete
        self.cancelled = False
        #: The link carrying this transfer while it is active, else None.
        self._link: Optional[Link] = None
        self._remaining_mb = size_mb
        self._rate_mbps = 0.0

    @property
    def remaining_mb(self) -> float:
        link = self._link
        if link is None:
            return self._remaining_mb
        return link._remaining[link._slot(self)]

    @property
    def rate_mbps(self) -> float:
        link = self._link
        if link is None:
            return self._rate_mbps
        return link._rate_at(link._slot(self))

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
        #: Active transfers in start order, which is ascending ``id``.
        self._transfers: List[Transfer] = []
        #: MB left per active transfer as of the last settle (parallel).
        self._remaining: List[float] = []
        #: Active transfers per rate cap (``None`` = uncapped).
        self._caps: Dict[Optional[float], int] = {}
        #: Every stream's rate while one cap is active...
        self._rate = 0.0
        #: ...or the per-stream rates (parallel) while caps are mixed.
        self._rates: Optional[List[float]] = None
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
        t._link = self
        self._transfers.append(t)
        self._remaining.append(size_mb)
        self._caps[rate_cap_mbps] = self._caps.get(rate_cap_mbps, 0) + 1
        self._replan()
        return t

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer (worker killed); no callback fires."""
        if transfer.done or transfer.cancelled:
            return
        transfer.cancelled = True
        self._settle()
        if transfer._link is self:
            i = self._slot(transfer)
            self._detach(transfer, i, self._remaining[i])
            del self._transfers[i]
            del self._remaining[i]
        self._replan()

    # ------------------------------------------------------------- internals
    def _slot(self, transfer: Transfer) -> int:
        """Index of an active ``transfer`` in the parallel lists."""
        return bisect.bisect_left(self._transfers, transfer.id, key=_transfer_id)

    def _rate_at(self, i: int) -> float:
        rates = self._rates
        return self._rate if rates is None else rates[i]

    def _detach(self, transfer: Transfer, i: int, remaining_mb: float) -> None:
        """Freeze slot ``i``'s state on ``transfer`` and drop its cap from
        the tally; the caller removes the slot and then re-plans."""
        transfer._remaining_mb = remaining_mb
        transfer._rate_mbps = self._rate_at(i)
        transfer._link = None
        cap = transfer.rate_cap_mbps
        left = self._caps[cap] - 1
        if left:
            self._caps[cap] = left
        else:
            del self._caps[cap]

    def _settle(self) -> None:
        """Account progress accrued since the last re-plan."""
        now = self.engine.now
        dt = now - self._last_update
        remaining = self._remaining
        if dt > 0 and remaining:
            rates = self._rates
            if rates is None:
                moved = self._rate * dt
                self._remaining = [v if (v := r - moved) > 0.0 else 0.0 for r in remaining]
                # A sequential fold: the same additions as one += per stream.
                self.bytes_moved_mb = reduce(add, repeat(moved, len(remaining)), self.bytes_moved_mb)
            else:
                per_stream = [rate * dt for rate in rates]
                self._remaining = [
                    v if (v := r - m) > 0.0 else 0.0 for r, m in zip(remaining, per_stream)
                ]
                self.bytes_moved_mb = reduce(add, per_stream, self.bytes_moved_mb)
        self._last_update = now

    def _replan(self) -> None:
        """Recompute fair shares and re-arm the next completion event."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        remaining = self._remaining
        n = len(remaining)
        if not n:
            self.throughput.record(self.engine.now, 0.0)
            return
        if len(self._caps) == 1:
            # One cap: water-filling freezes everyone or no one in its
            # first round, so the rate is one scalar.
            (cap,) = self._caps
            share = self.effective_capacity(n) / n
            rate = cap if cap is not None and cap < share else share
            self._rate, self._rates = rate, None
            self.throughput.record(self.engine.now, sum(repeat(rate, n)))
            # Dividing by a positive constant is monotone, so this is the
            # smallest per-stream ETA.
            next_finish = min(remaining) / rate
        else:
            rates = self._rates = self._water_fill(n)
            self.throughput.record(self.engine.now, sum(rates))
            next_finish = math.inf
            for r, rate in zip(remaining, rates):
                if rate <= 0:
                    continue
                eta = r / rate
                if eta < next_finish:
                    next_finish = eta
        # Only the earliest completion needs an event; later ones are
        # re-planned when it fires.
        if next_finish < math.inf:
            self._completion_event = self.engine.call_in(next_finish, self._on_completion)

    def effective_capacity(self, n_active: int) -> float:
        """Aggregate capacity available to ``n_active`` concurrent streams."""
        if n_active <= 0:
            return self.capacity_mbps
        return self.capacity_mbps / (1.0 + self.per_stream_overhead * (n_active - 1))

    def _water_fill(self, n: int) -> List[float]:
        """Water-filling max-min fairness under mixed per-transfer caps."""
        remaining_capacity = self.effective_capacity(n)
        caps = [t.rate_cap_mbps for t in self._transfers]
        rates: List[Optional[float]] = [None] * n
        # Start by treating everyone as uncapped; iteratively freeze
        # transfers whose cap is below the current equal share.
        free = list(range(n))
        while free:
            share = remaining_capacity / len(free)
            newly_frozen = [i for i in free if caps[i] is not None and caps[i] < share]
            if not newly_frozen:
                for i in free:
                    rates[i] = share
                break
            for i in newly_frozen:
                rates[i] = caps[i]
                remaining_capacity -= caps[i]
            remaining_capacity = max(0.0, remaining_capacity)
            free = [i for i in free if rates[i] is None]
        return rates  # type: ignore[return-value]

    def _stalled(self) -> List[int]:
        """Slots whose ETA at the current rates does not advance the clock.

        Far from t=0, ``rate × ulp(now)`` can exceed the 1e-9 MB completion
        tolerance: a completion event then finishes nothing and its re-armed
        ETA rounds back to ``now``. These transfers are as done as the
        clock can tell.
        """
        now = self.engine.now
        rates = self._rates
        if rates is None:
            rate = self._rate
            return [i for i, r in enumerate(self._remaining) if now + r / rate == now]
        return [
            i
            for i, (r, rate) in enumerate(zip(self._remaining, rates))
            if rate > 0 and now + r / rate == now
        ]

    def _on_completion(self) -> None:
        self._completion_event = None
        self._settle()
        transfers, remaining = self._transfers, self._remaining
        done = [i for i, r in enumerate(remaining) if r <= _DONE_MB] or self._stalled()
        finished = [transfers[i] for i in done]
        if finished:
            now = self.engine.now
            for i, t in zip(done, finished):
                self._detach(t, i, 0.0)
                t.finish_time = now
            self.transfers_completed += len(finished)
            if len(finished) == len(transfers):
                # Nothing survives (the usual case at one stream): skip
                # building a keep mask.
                self._transfers, self._remaining = [], []
            else:
                # One compaction pass; survivors keep their start order.
                keep = [True] * len(transfers)
                for i in done:
                    keep[i] = False
                self._transfers = list(compress(transfers, keep))
                self._remaining = list(compress(remaining, keep))
        self._replan()
        for t in finished:
            if t.on_complete is not None:
                t.on_complete(t)

    # ---------------------------------------------------------------- reads
    @property
    def active_count(self) -> int:
        return len(self._transfers)

    def current_rate_of(self, transfer: Transfer) -> float:
        return transfer.rate_mbps if transfer._link is self else 0.0

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
        return f"<Link {self.name!r} cap={self.capacity_mbps}MB/s active={len(self._transfers)}>"
