"""Generator-based processes layered on the event engine.

A *process* is a generator advanced by the kernel. It may yield:

* :class:`Timeout` — resume after a delay;
* :class:`Wait` — resume when a :class:`Signal` fires (with its payload);
* another :class:`Process` — resume when the child finishes (with its
  return value); a child that failed re-raises inside the parent;
* :class:`AllOf` / :class:`AnyOf` — join combinators over the above.

This style keeps sequential protocols (worker connect → fetch inputs →
execute → send outputs) readable, while control loops that react to many
concurrent conditions (the master's dispatcher, the link's bandwidth
re-sharing) stay callback-based.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.engine import Engine, ScheduledEvent, SimulationError


class Timeout:
    """Yielded by a process to sleep for ``delay`` seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay
        self.value = value


class Signal:
    """A broadcast condition processes can wait on.

    ``fire(payload)`` wakes every current waiter exactly once, passing the
    payload as the value of their ``yield``. Unlike a queue, payloads are
    not buffered: a waiter that arrives after the fire waits for the next
    one. Use :meth:`fire_once` for one-shot completion signals — later
    waiters then complete immediately with the stored payload.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []
        self._fired_forever = False
        self._payload: Any = None

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        if self._fired_forever:
            self.engine.call_soon(callback, self._payload)
        else:
            self._waiters.append(callback)

    def remove_waiter(self, callback: Callable[[Any], None]) -> None:
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def fire(self, payload: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        self.engine.call_soon_each(zip(waiters, repeat((payload,))))
        return len(waiters)

    def fire_once(self, payload: Any = None) -> None:
        """Fire and latch: every future waiter completes immediately."""
        if self._fired_forever:
            return
        self._fired_forever = True
        self._payload = payload
        self.fire(payload)

    @property
    def latched(self) -> bool:
        return self._fired_forever

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class Wait:
    """Yielded by a process to block on a :class:`Signal`."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal


class AllOf:
    """Join: resume when every sub-wait completes; value is the list of
    sub-values in declaration order."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any]):
        self.items = list(items)


class AnyOf:
    """Join: resume when the first sub-wait completes; value is
    ``(index, value)`` of the winner. Remaining timers are cancelled and
    signal waiters detached."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any]):
        self.items = list(items)
        if not self.items:
            raise SimulationError("AnyOf requires at least one item")


class ProcessFailed(RuntimeError):
    """Wraps an exception escaping a child process awaited by a parent."""

    def __init__(self, process: "Process", cause: BaseException):
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.cause = cause


class Process:
    """A running generator coroutine; see module docstring for the protocol.

    Completion is observable either by another process yielding this one,
    or via :attr:`done_signal` (a latched :class:`Signal` fired with the
    return value).
    """

    def __init__(self, engine: Engine, gen: Generator, name: str = "proc"):
        self.engine = engine
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done_signal = Signal(engine, f"{name}.done")
        self._pending_handle: Optional[ScheduledEvent] = None
        self._detachers: list[Callable[[], None]] = []
        self._cancelled = False
        engine.call_soon(self._resume, None, None)

    # ----------------------------------------------------------- lifecycle
    def cancel(self) -> None:
        """Stop the process at its current suspension point.

        The generator's ``close()`` runs (triggering ``finally`` blocks),
        and the process completes with result None.
        """
        if self.done or self._cancelled:
            return
        self._cancelled = True
        self._detach_all()
        try:
            self.gen.close()
        finally:
            self._finish(None, None)

    def _detach_all(self) -> None:
        if self._pending_handle is not None:
            self._pending_handle.cancel()
            self._pending_handle = None
        for d in self._detachers:
            d()
        self._detachers.clear()

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        if self.done:
            return
        self.done = True
        self.result = result
        self.error = error
        self.done_signal.fire_once((result, error))

    # ------------------------------------------------------------- stepping
    def _resume(self, value: Any, error: Optional[BaseException]) -> None:
        if self.done or self._cancelled:
            return
        self._pending_handle = None
        self._detachers.clear()
        try:
            if error is not None:
                yielded = self.gen.throw(error)
            else:
                yielded = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagated to waiters
            self._finish(None, exc)
            return
        try:
            self._arm(yielded)
        except SimulationError as exc:
            # Bad yield (unsupported object): the *process* failed, not
            # the engine; report through the normal completion channel.
            self._finish(None, exc)

    def _arm(self, yielded: Any) -> None:
        """Install wake-ups for whatever the generator yielded."""
        canceller = self._arm_single(yielded, self._resume)
        if canceller is not None:
            self._detachers.append(canceller)

    def _arm_single(
        self, item: Any, resume: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional[Callable[[], None]]:
        if isinstance(item, Timeout):
            handle = self.engine.call_in(item.delay, resume, item.value, None)
            self._pending_handle = handle
            return handle.cancel
        if isinstance(item, Wait):
            cb = lambda payload: resume(payload, None)  # noqa: E731
            item.signal.add_waiter(cb)
            return lambda: item.signal.remove_waiter(cb)
        if isinstance(item, Process):
            def on_done(payload: Any) -> None:
                result, error = payload
                if error is not None:
                    resume(None, ProcessFailed(item, error))
                else:
                    resume(result, None)

            item.done_signal.add_waiter(on_done)
            return lambda: item.done_signal.remove_waiter(on_done)
        if isinstance(item, AllOf):
            return self._arm_all(item, resume)
        if isinstance(item, AnyOf):
            return self._arm_any(item, resume)
        raise SimulationError(f"process {self.name!r} yielded unsupported {item!r}")

    def _arm_all(
        self, allof: AllOf, resume: Callable[[Any, Optional[BaseException]], None]
    ) -> Callable[[], None]:
        n = len(allof.items)
        results: list[Any] = [None] * n
        remaining = [n]
        cancellers: list[Callable[[], None]] = []
        finished = [False]

        def make_resume(i: int) -> Callable[[Any, Optional[BaseException]], None]:
            def sub_resume(value: Any, error: Optional[BaseException]) -> None:
                if finished[0]:
                    return
                if error is not None:
                    finished[0] = True
                    for c in cancellers:
                        c()
                    resume(None, error)
                    return
                results[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    finished[0] = True
                    resume(list(results), None)

            return sub_resume

        if n == 0:
            self.engine.call_soon(resume, [], None)
            return lambda: None
        for i, sub in enumerate(allof.items):
            c = self._arm_single(sub, make_resume(i))
            if c is not None:
                cancellers.append(c)
        return lambda: [c() for c in cancellers]  # type: ignore[func-returns-value]

    def _arm_any(
        self, anyof: AnyOf, resume: Callable[[Any, Optional[BaseException]], None]
    ) -> Callable[[], None]:
        cancellers: list[Callable[[], None]] = []
        finished = [False]

        def make_resume(i: int) -> Callable[[Any, Optional[BaseException]], None]:
            def sub_resume(value: Any, error: Optional[BaseException]) -> None:
                if finished[0]:
                    return
                finished[0] = True
                for c in cancellers:
                    c()
                if error is not None:
                    resume(None, error)
                else:
                    resume((i, value), None)

            return sub_resume

        for i, sub in enumerate(anyof.items):
            c = self._arm_single(sub, make_resume(i))
            if c is not None:
                cancellers.append(c)
        return lambda: [c() for c in cancellers]  # type: ignore[func-returns-value]

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else ("cancelled" if self._cancelled else "running")
        return f"<Process {self.name!r} {state}>"


def spawn(engine: Engine, gen: Generator, name: str = "proc") -> Process:
    """Start ``gen`` as a process on ``engine``; convenience wrapper."""
    return Process(engine, gen, name)
