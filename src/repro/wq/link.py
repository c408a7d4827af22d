"""The master's egress network link with max-min fair sharing.

§III-A's sizing trade-off hinges on this: "the master's egress network
bandwidth is fixed, [so] the fine-grained configuration has to share
limited bandwidth between more workers with more data movements". We
model one :class:`Link` of fixed capacity; every active :class:`Transfer`
receives a max-min fair share, computed by water-filling over optional
per-transfer rate caps (a worker's node NIC). The link re-plans on every
membership change, settling accrued progress first, so completion times
are exact for piecewise-constant rates.

The active transfers live in parallel sequences in start order: the
transfers themselves and the MB each has left as of the last settle. A
``{cap: count}`` tally says how many distinct caps are active. With one
cap (every stream behind the same NIC, or none capped) water-filling
ends in one round, so every stream runs at one scalar rate. Mixed caps
fall back to round-by-round water-filling into a parallel rates list.

What a membership change costs depends on how many streams it sees:

* one stream (a start on an idle link, a completion or cancel of the
  last stream) takes a scalar path with no sequence passes;
* up to about a hundred streams, the remaining MB are a list and each
  pass is a comprehension or a C builtin;
* from :data:`ARRAY_FROM` streams under one cap, the remaining MB are a
  float64 array and settling, the byte count, the next-completion
  minimum and the done scan are numpy passes, until the count falls
  below :data:`LIST_BELOW`.

Every path performs the same float operations in the same order as the
per-stream loop they replace (``tests/reference/link_literal.py``), so
results are bit-identical, and every read returns a Python number.

The link also records a utilization step-series, from which fig 4's
"average bandwidth" column is computed.
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from itertools import count, repeat
from operator import add, attrgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.tracing import StepSeries

_transfer_id = attrgetter("id")

TransferCallback = Callable[["Transfer"], None]

#: A transfer with at most this much left (MB) has finished.
_DONE_MB = 1e-9

#: One-cap stream count from which the remaining MB become an array: a
#: numpy pass costs about 1 µs to call, a list pass tens of ns per stream,
#: and a completion costs the same both ways at about 100 streams
#: (DESIGN §12).
ARRAY_FROM = 128
#: Stream count below which an array goes back to a list. The gap keeps a
#: count hovering near the crossover from converting on every change.
LIST_BELOW = 64


def _fire(transfer: "Transfer") -> None:
    """Run ``transfer``'s completion callback, dropping it first.

    A finished or cancelled transfer keeps no callback: the callback
    usually closes over the run that lists the transfer, and holding it
    would leave that pair a reference cycle only the collector frees.
    """
    callback = transfer.on_complete
    if callback is not None:
        transfer.on_complete = None
        callback(transfer)


def _without(items: list, done: List[int]) -> list:
    """``items`` less the ascending indices ``done``, in one copy pass."""
    kept: list = []
    start = 0
    for i in done:
        kept += items[start:i]
        start = i + 1
    kept += items[start:]
    return kept


class Transfer:
    """An in-flight data movement over a :class:`Link`.

    ``id`` numbers the transfer among its link's transfers in start
    order. While the transfer is active, ``remaining_mb`` (as of the
    link's last settle) and ``rate_mbps`` are read from the link; once
    it finishes or is cancelled they keep their last values.
    ``on_complete`` is dropped once it has fired or the transfer is
    cancelled (see :func:`_fire`).
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
        id: int,
        label: str,
        size_mb: float,
        rate_cap_mbps: Optional[float],
        on_complete: Optional[TransferCallback],
        start_time: float,
    ) -> None:
        self.id = id
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
        return link._remaining_at(link._slot(self), self)

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
        # Range checks NaN fails too: a NaN or infinite capacity or
        # overhead would stall every transfer without an error.
        if not 0 < capacity_mbps < math.inf:
            raise ValueError(
                f"link capacity must be positive and finite, got {capacity_mbps}"
            )
        if not 0 <= per_stream_overhead < math.inf:
            raise ValueError(
                "per_stream_overhead must be non-negative and finite, "
                f"got {per_stream_overhead}"
            )
        self.engine = engine
        self.capacity_mbps = capacity_mbps
        self.per_stream_overhead = per_stream_overhead
        self.name = name
        #: Numbers this link's transfers in start order.
        self._transfer_ids = count(1)
        #: Active transfers in start order, which is ascending ``id``.
        self._transfers: List[Transfer] = []
        #: MB left per active transfer as of the last settle (parallel): a
        #: list, or a view of the first ``n`` slots of ``_buf``.
        self._remaining = []
        #: The array backing ``_remaining`` from ARRAY_FROM streams, else
        #: None. Spare slots past the view make a start O(1).
        self._buf: Optional[np.ndarray] = None
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
        #: ``sum(repeat(rate, n))`` per one-cap ``(rate, n)`` recorded.
        self._throughput_of: Dict[Tuple[float, int], float] = {}

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
        queue, preserving callback ordering guarantees). A non-finite size
        or cap raises ``ValueError``: a NaN size would poison the
        next-completion minimum and stall every transfer on the link.
        """
        if not math.isfinite(size_mb):
            raise ValueError(f"transfer size must be finite, got {size_mb}")
        if size_mb < 0:
            raise ValueError(f"transfer size must be non-negative, got {size_mb}")
        if rate_cap_mbps is not None and not (0 < rate_cap_mbps < math.inf):
            raise ValueError(f"rate cap must be positive and finite, got {rate_cap_mbps}")
        now = self.engine.now
        t = Transfer(
            next(self._transfer_ids), label, size_mb, rate_cap_mbps, on_complete, now
        )
        if size_mb == 0:
            t.finish_time = now
            self.transfers_completed += 1
            if on_complete is not None:
                self.engine.call_soon(_fire, t)
            return t
        t._link = self
        transfers = self._transfers
        if not transfers:
            # The lone stream: the general path's settle, append and
            # one-cap re-plan, on scalars.
            self._last_update = now
            transfers.append(t)
            self._remaining.append(size_mb)
            self._caps[rate_cap_mbps] = 1
            share = self.effective_capacity(1) / 1
            rate = rate_cap_mbps if rate_cap_mbps is not None and rate_cap_mbps < share else share
            self._rate, self._rates = rate, None
            self.throughput.record(now, 0 + rate)
            next_finish = size_mb / rate
            if next_finish < math.inf:
                self._completion_event = self.engine.call_at(now + next_finish, self._on_completion)
            return t
        self._settle()
        n = len(transfers)
        transfers.append(t)
        buf = self._buf
        if buf is None:
            self._remaining.append(size_mb)
        else:
            if n == len(buf):
                buf = self._buf = np.concatenate((buf, np.empty(n)))
            buf[n] = size_mb
            self._remaining = buf[: n + 1]
        self._caps[rate_cap_mbps] = self._caps.get(rate_cap_mbps, 0) + 1
        self._replan()
        return t

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer (worker killed); no callback fires."""
        if transfer.done or transfer.cancelled:
            return
        transfer.cancelled = True
        transfer.on_complete = None
        if transfer._link is self and len(self._transfers) == 1:
            self._detach(transfer, 0, self._settle_lone())
            self._transfers.clear()
            self._remaining.clear()
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            self.throughput.record(self.engine.now, 0.0)
            return
        self._settle()
        if transfer._link is self:
            i = self._slot(transfer)
            self._detach(transfer, i, self._remaining_at(i, transfer))
            self._drop([i])
        self._replan()

    # ------------------------------------------------------------- internals
    def _slot(self, transfer: Transfer) -> int:
        """Index of an active ``transfer`` in the parallel sequences."""
        return bisect.bisect_left(self._transfers, transfer.id, key=_transfer_id)

    def _remaining_at(self, i: int, transfer: Transfer) -> float:
        """Slot ``i``'s MB left, as the per-stream loop holds it.

        The array holds floats, but a transfer not yet settled still has
        its ``size_mb`` left, whatever its type. A transfer is unsettled
        exactly when its start time is the last settle's time.
        """
        if self._buf is None:
            return self._remaining[i]
        if transfer.start_time == self._last_update:
            return transfer.size_mb
        return float(self._remaining[i])

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

    def _drop(self, done: List[int]) -> None:
        """Remove the slots ``done`` (ascending); survivors keep their
        start order."""
        transfers = self._transfers
        buf = self._buf
        if len(done) == len(transfers):
            self._transfers, self._remaining, self._buf = [], [], None
        elif len(done) == 1:
            (i,) = done
            del transfers[i]
            if buf is None:
                del self._remaining[i]
            else:
                n = len(transfers)
                buf[i:n] = buf[i + 1 : n + 1]
                self._remaining = buf[:n]
        else:
            self._transfers = _without(transfers, done)
            if buf is None:
                self._remaining = _without(self._remaining, done)
            else:
                kept = np.delete(self._remaining, done)
                buf[: len(kept)] = kept
                self._remaining = buf[: len(kept)]

    def _settle_lone(self) -> float:
        """:meth:`_settle` for one stream, on scalars; returns its MB left."""
        now = self.engine.now
        remaining = self._remaining
        r = remaining[0]
        dt = now - self._last_update
        if dt > 0:
            moved = self._rate * dt
            r = remaining[0] = v if (v := r - moved) > 0.0 else 0.0
            self.bytes_moved_mb = self.bytes_moved_mb + moved
        self._last_update = now
        return r

    def _settle(self) -> None:
        """Account progress accrued since the last re-plan."""
        now = self.engine.now
        dt = now - self._last_update
        remaining = self._remaining
        if dt > 0 and len(remaining):
            rates = self._rates
            if rates is None:
                moved = self._rate * dt
                if self._buf is None:
                    self._remaining = [v if (v := r - moved) > 0.0 else 0.0 for r in remaining]
                    # A sequential fold: the same additions as one += per stream.
                    self.bytes_moved_mb = reduce(
                        add, repeat(moved, len(remaining)), self.bytes_moved_mb
                    )
                else:
                    # In place, the comprehension's clamp: NaN and -0.0
                    # become 0.0, as np.where(v > 0.0, v, 0.0) maps them.
                    np.subtract(remaining, moved, out=remaining)
                    np.copyto(remaining, 0.0, where=~(remaining > 0.0))
                    # accumulate, unlike sum, adds strictly left to right.
                    fold = np.full(len(remaining) + 1, moved)
                    fold[0] = self.bytes_moved_mb
                    self.bytes_moved_mb = float(np.add.accumulate(fold)[-1])
            else:
                per_stream = [rate * dt for rate in rates]
                self._remaining = [
                    v if (v := r - m) > 0.0 else 0.0 for r, m in zip(remaining, per_stream)
                ]
                self.bytes_moved_mb = reduce(add, per_stream, self.bytes_moved_mb)
        self._last_update = now

    def _to_array(self) -> None:
        n = len(self._transfers)
        buf = self._buf = np.empty(2 * n)
        buf[:n] = list(map(float, self._remaining))
        self._remaining = buf[:n]

    def _to_list(self) -> None:
        last = self._last_update
        self._remaining = [
            t.size_mb if t.start_time == last else v
            for t, v in zip(self._transfers, self._remaining.tolist())
        ]
        self._buf = None

    def _replan(self) -> None:
        """Recompute fair shares and re-arm the next completion event."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        n = len(self._transfers)
        if not n:
            self.throughput.record(self.engine.now, 0.0)
            return
        caps = self._caps
        if self._buf is None:
            if n >= ARRAY_FROM and len(caps) == 1:
                self._to_array()
        elif n < LIST_BELOW or len(caps) != 1:
            self._to_list()
        if len(caps) == 1:
            # One cap: water-filling freezes everyone or no one in its
            # first round, so the rate is one scalar.
            (cap,) = caps
            share = self.effective_capacity(n) / n
            rate = cap if cap is not None and cap < share else share
            self._rate, self._rates = rate, None
            # The recorded sum is a pure function of (rate, n), and one cap
            # and n fix the rate, so each stream count is summed once.
            total = self._throughput_of.get((rate, n))
            if total is None:
                total = self._throughput_of[rate, n] = sum(repeat(rate, n))
            self.throughput.record(self.engine.now, total)
            remaining = self._remaining
            smallest = min(remaining) if self._buf is None else float(remaining.min())
            # Dividing by a positive constant is monotone, so this is the
            # smallest per-stream ETA.
            next_finish = smallest / rate
        else:
            rates = self._rates = self._water_fill(n)
            self.throughput.record(self.engine.now, sum(rates))
            next_finish = math.inf
            for r, rate in zip(self._remaining, rates):
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
            if self._buf is not None:
                return np.flatnonzero(now + self._remaining / rate == now).tolist()
            return [i for i, r in enumerate(self._remaining) if now + r / rate == now]
        return [
            i
            for i, (r, rate) in enumerate(zip(self._remaining, rates))
            if rate > 0 and now + r / rate == now
        ]

    def _on_completion(self) -> None:
        self._completion_event = None
        transfers = self._transfers
        if len(transfers) == 1:
            # The lone stream: the general path below on scalars.
            r = self._settle_lone()
            now = self.engine.now
            rate = self._rate
            if not (r <= _DONE_MB or now + r / rate == now):
                self._replan()
                return
            (t,) = transfers
            self._detach(t, 0, 0.0)
            t.finish_time = now
            transfers.clear()
            self._remaining.clear()
            self.transfers_completed += 1
            self.throughput.record(now, 0.0)
            _fire(t)
            return
        self._settle()
        remaining = self._remaining
        if self._buf is None:
            done = [i for i, r in enumerate(remaining) if r <= _DONE_MB]
        else:
            done = np.flatnonzero(remaining <= _DONE_MB).tolist()
        done = done or self._stalled()
        finished = [transfers[i] for i in done]
        if finished:
            now = self.engine.now
            for i, t in zip(done, finished):
                self._detach(t, i, 0.0)
                t.finish_time = now
            self.transfers_completed += len(finished)
            self._drop(done)
        self._replan()
        for t in finished:
            _fire(t)

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
