"""The event engine with one heap entry per callback, kept as a test oracle.

This is :class:`repro.sim.engine.Engine` before same-instant fan-outs:
every watch delivery and signal wake-up was its own ``call_soon``, so
``k`` deliveries took ``k`` consecutive sequence numbers and ``k`` heap
entries, and ``run`` dropped cancelled entries through a method call on
every event. It is kept verbatim (only :class:`SimulationError` is
imported from the fast engine, so a test catches one type), so property
tests can drive both engines through the same programs and demand the
same ``(callback, now, events_fired)`` trace.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro.sim.engine import SimulationError


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
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
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

    # --------------------------------------------------------------- running
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)

    def step(self) -> bool:
        """Fire the single next event. Returns False if none remained.

        Like :meth:`run`, not reentrant: a nested call from a callback
        would fire a later event inside an earlier one and move ``now``
        under the outer callback's feet.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: step() called from a callback")
        self._drop_cancelled()
        if not self._heap:
            return False
        ev = heapq.heappop(self._heap)[2]
        self._now = ev.time
        ev.fired = True
        fn, args = ev.fn, ev.args
        ev.fn, ev.args = None, ()  # release references promptly
        self._fired_count += 1
        assert fn is not None
        self._running = True
        try:
            fn(*args)
        finally:
            self._running = False
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.

        When stopping at ``until`` with events still pending beyond it, the
        clock is advanced exactly to ``until`` so subsequent scheduling is
        relative to the requested horizon. Returns the final clock value.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: run() called from a callback")
        self._running = True
        fired = 0
        try:
            while True:
                self._drop_cancelled()
                if not self._heap:
                    break
                nxt = self._heap[0][0]
                if until is not None and nxt > until:
                    self._now = max(self._now, until)
                    break
                if max_events is not None and fired >= max_events:
                    break
                ev = heapq.heappop(self._heap)[2]
                self._now = ev.time
                ev.fired = True
                fn, args = ev.fn, ev.args
                ev.fn, ev.args = None, ()
                self._fired_count += 1
                fired += 1
                assert fn is not None
                fn(*args)
            if until is not None and self._now < until and not self._heap:
                # Queue drained before the horizon: advance to it anyway so
                # repeated run(until=...) calls behave like a wall clock.
                self._now = until
        finally:
            self._running = False
        return self._now

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        self._drop_cancelled()
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.3f} pending={len(self._heap)}>"
