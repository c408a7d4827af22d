"""The discrete-event engine: a time-ordered queue of callbacks.

Design notes
------------
* Time is a float number of **seconds** since the start of the simulation.
* Events scheduled for the same instant fire in FIFO order (a monotonically
  increasing sequence number breaks ties), which keeps runs deterministic.
* Cancellation is O(1): cancelled events stay in the heap but are skipped
  when popped (the standard "lazy deletion" idiom), so control loops that
  re-arm timers frequently (HPA sync, transfer re-sharing) stay cheap.
* A same-instant fan-out (:meth:`Engine.call_soon_each`: watch deliveries,
  signal wake-ups) is one heap entry whose members fire back to back;
  each member still counts as one event.
* The engine never advances time past an event: components observe a
  consistent ``engine.now`` inside their callbacks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Iterable, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class ScheduledEvent:
    """Handle for a pending callback; supports O(1) cancellation.

    Instances are returned by :meth:`Engine.call_at` / :meth:`Engine.call_in`.
    The engine's heap orders ``(time, seq, event)`` tuples, so events are
    never compared with each other.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent, safe after firing."""
        self.cancelled = True
        # Drop references so cancelled events pinned in the heap don't keep
        # large object graphs (workers, pods) alive.
        self.fn = None
        self.args = ()

    @property
    def pending(self) -> bool:
        """True while the event is armed and not yet fired or cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<ScheduledEvent t={self.time:.3f} seq={self.seq} {state}>"


class _FanOut(deque):
    """The members of one same-instant fan-out not yet fired, in order,
    as ``(fn, args)`` pairs: the third item of the fan-out's heap entry.

    It has no handle, so it is never cancelled; ``fn`` is None only here,
    which is how the event loop tells it from a :class:`ScheduledEvent`.
    """

    __slots__ = ()
    cancelled = False
    fn = None


class Engine:
    """A deterministic discrete-event simulation engine.

    Typical use::

        eng = Engine()
        eng.call_in(5.0, print, "five seconds in")
        eng.run()            # runs until the event queue drains
        assert eng.now == 5.0

    The engine is deliberately minimal; richer constructs (processes,
    signals) are layered on in :mod:`repro.sim.process`.
    """

    def __init__(self) -> None:
        self._now = 0.0
        # Heap entries are (time, seq, event) tuples: (time, seq) is unique,
        # so heap comparisons never fall through to the event object and
        # stay C-level tuple compares instead of Python __lt__ calls.
        self._heap: list[tuple[float, int, ScheduledEvent | _FanOut]] = []
        self._seq = itertools.count()
        self._running = False
        self._fired_count = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._fired_count

    # ------------------------------------------------------------ scheduling
    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run at absolute simulation ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} in the past (now={self._now})"
            )
        ev = ScheduledEvent(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, (time, ev.seq, ev))
        return ev

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at the current instant (after pending
        same-time events already in the queue)."""
        return self.call_at(self._now, fn, *args)

    def call_soon_each(self, calls: Iterable[Tuple[Callable[..., Any], tuple]]) -> None:
        """Schedule every ``(fn, args)`` of ``calls`` at the current
        instant, in order, as one heap entry.

        Equivalent to ``for fn, args in calls: call_soon(fn, *args)``
        without the handles: those ``k`` events would take ``k``
        consecutive sequence numbers at one instant, so nothing could
        fire between them, and whatever they schedule sorts after all of
        them. Here the entry's members fire back to back, each counted
        in :attr:`events_fired` and against ``run(max_events=)``; what a
        member schedules gets a later sequence number than the entry.
        When a ``max_events`` budget runs out inside the entry or a
        member raises, the members not yet fired go back on the heap
        under the entry's own ``(time, seq)``, so they still fire first.
        """
        members = _FanOut(calls)
        if members:
            heapq.heappush(self._heap, (self._now, next(self._seq), members))

    # --------------------------------------------------------------- running
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)

    def step(self) -> bool:
        """Fire the single next event (one member of a fan-out). Returns
        False if none remained.

        Like :meth:`run`, not reentrant: a nested call from a callback
        would fire a later event inside an earlier one and move ``now``
        under the outer callback's feet.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: step() called from a callback")
        self._drop_cancelled()
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        self._now, _, ev = entry
        fn = ev.fn
        if fn is None:
            fn, args = ev.popleft()
            if ev:
                heapq.heappush(self._heap, entry)
        else:
            ev.fired = True
            args = ev.args
            ev.fn, ev.args = None, ()  # release references promptly
        self._fired_count += 1
        self._running = True
        try:
            fn(*args)
        finally:
            self._running = False
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have fired (fan-out members count one
        each).

        When stopping at ``until`` with events still pending beyond it, the
        clock is advanced exactly to ``until`` so subsequent scheduling is
        relative to the requested horizon. Returns the final clock value.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: run() called from a callback")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        try:
            while heap:
                entry = heap[0]
                ev = entry[2]
                if ev.cancelled:
                    heappop(heap)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    if self._now < until:
                        self._now = until
                    break
                if max_events is not None and fired >= max_events:
                    break
                heappop(heap)
                self._now = time
                fn = ev.fn
                if fn is not None:
                    ev.fired = True
                    args = ev.args
                    ev.fn, ev.args = None, ()
                    self._fired_count += 1
                    fired += 1
                    fn(*args)
                    continue
                budget = len(ev)
                if max_events is not None and max_events - fired < budget:
                    budget = max_events - fired
                fired += budget
                popleft = ev.popleft
                try:
                    for _ in range(budget):
                        fn, args = popleft()
                        self._fired_count += 1
                        fn(*args)
                finally:
                    if ev:
                        heapq.heappush(heap, entry)
            if until is not None and self._now < until and not heap:
                # Queue drained before the horizon: advance to it anyway so
                # repeated run(until=...) calls behave like a wall clock.
                self._now = until
        finally:
            self._running = False
        return self._now

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued, counting
        each fan-out member not yet fired."""
        self._drop_cancelled()
        return sum(
            len(ev) if ev.fn is None else 1
            for _, _, ev in self._heap
            if not ev.cancelled
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.3f} pending={len(self._heap)}>"


class PeriodicTask:
    """Re-arming timer used by control loops (HPA sync, samplers, HTA cycles).

    With ``use_return_delay=True``, ``fn`` may return a float to override
    the delay before the next firing (HTA uses this: the next resize
    happens one *resource-initialization cycle* later, and that cycle
    length changes as new measurements arrive). Returning ``False`` stops
    the loop in either mode; other return values are ignored by default so
    callbacks with informative returns (e.g. "pods bound this pass") can
    be reused directly as loop bodies.
    """

    def __init__(
        self,
        engine: Engine,
        period: float,
        fn: Callable[[], Any],
        *,
        start_after: Optional[float] = None,
        use_return_delay: bool = False,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self.engine = engine
        self.period = period
        self.fn = fn
        self.use_return_delay = use_return_delay
        self._stopped = False
        delay = period if start_after is None else start_after
        self._handle: Optional[ScheduledEvent] = engine.call_in(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        result = self.fn()
        if result is False or self._stopped:
            self._handle = None
            return
        delay = self.period
        if (
            self.use_return_delay
            and isinstance(result, (int, float))
            and not isinstance(result, bool)
        ):
            if result <= 0:
                raise SimulationError(f"periodic task returned non-positive delay {result}")
            delay = float(result)
        self._handle = self.engine.call_in(delay, self._fire)

    def stop(self) -> None:
        """Stop the loop; idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return not self._stopped and self._handle is not None
