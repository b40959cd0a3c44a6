"""A compact discrete-event simulation kernel.

This is the substrate on which everything else in :mod:`repro` runs: the
network of workstations, the PVM-like message layer, and the dynamic load
balancing protocols are all simulated processes scheduled by the
:class:`Environment` defined here.

The design follows the classic process-interaction style (as popularized
by SimPy): simulated processes are Python generators that ``yield`` events
(:class:`Timeout`, :class:`Event`, other :class:`Process` instances, or
composites such as :class:`AnyOf`/:class:`AllOf`).  The kernel is
deterministic: events scheduled at equal times fire in (priority,
insertion-order) sequence, so simulations are exactly reproducible for a
given seed.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import Interrupt, ScheduleInPastError, SimulationError, StopProcess

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]

# Scheduling priorities: lower fires first among simultaneous events.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

_PENDING = object()  # sentinel: event value not yet decided


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules its callbacks to run at the current
    simulation time.  Processes waiting on the event are resumed with the
    event's value (or have the failure raised inside them).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, PRIORITY_NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carried by ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, PRIORITY_NORMAL, 0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (processed) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ScheduleInPastError(env.now, env.now + delay)
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, PRIORITY_NORMAL, delay)


class Initialize(Event):
    """Internal: starts a process at the time it was created."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, PRIORITY_URGENT, 0.0)


class Process(Event):
    """A simulated process wrapping a generator.

    The process itself is an event that triggers when the generator
    returns (with its return value) or raises (with the exception).  Other
    processes may therefore ``yield proc`` to join it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        env._live[self] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must be alive and must not interrupt itself.  The
        interrupt is delivered immediately (before any other scheduled
        event at this timestamp).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver through a throw-event so interrupts honor the event loop.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, PRIORITY_URGENT, 0.0)

    def stop(self) -> None:
        """Terminate the process without treating it as a failure."""
        if not self.is_alive:
            return
        event = Event(self.env)
        event._ok = False
        event._value = StopProcess()
        event._defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, PRIORITY_URGENT, 0.0)

    # -- generator driving ----------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        # Detach from the event we were waiting on (interrupts bypass it).
        if self._target is not None and self._target is not event:
            try:
                self._target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, StopProcess):
                        self._generator.close()
                        raise StopIteration(None)
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._end(True, stop.value)
                return
            except StopProcess:
                self._end(True, None)
                return
            except BaseException as exc:
                self._end(False, exc)
                return

            if not isinstance(next_event, Event):
                self._end(False, SimulationError(
                    f"process {self.name!r} yielded non-event {next_event!r}"))
                return

            if next_event.callbacks is None:
                # Already processed: resume immediately with its value.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            env._active_process = None
            return

    def _end(self, ok: bool, value: Any) -> None:
        env = self.env
        env._active_process = None
        env._live.pop(self, None)
        self._ok = ok
        self._value = value
        env._schedule(self, PRIORITY_NORMAL, 0.0)


class Condition(Event):
    """Base for composite events over a fixed set of sub-events."""

    __slots__ = ("events", "_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        self._fired: list[Event] = []
        if not self.events:
            self.succeed(self._build_value())
            return
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("events from different environments")
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _build_value(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._fired if ev._ok}

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._fired.append(event)
        if self._satisfied():
            self.succeed(self._build_value())


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) == len(self.events)


class AnyOf(Condition):
    """Fires as soon as any sub-event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) >= 1


class Environment:
    """The simulation clock and event queue.

    All events and processes belong to exactly one environment.  Time is a
    float in *seconds* throughout :mod:`repro`.

    Scheduling order is the total order ``(time, priority, eid)`` where
    ``eid`` is a monotone insertion counter.  The implementation is a
    *slotted/heap hybrid*: events scheduled with zero delay — the vast
    majority in protocol-heavy runs (event triggers, resource grants,
    process starts and terminations) — go to per-priority FIFO buckets
    at the current instant instead of the heap, turning their
    ``O(log n)`` pushes and pops into ``O(1)`` deque operations.  Only
    genuine *future* events (timeouts, and the absolute entries of
    :meth:`schedule_at`) pay for the heap.  The pop side
    always takes the global minimum across buckets and heap, so the
    observable order is bit-identical to a single heap keyed by
    ``(time, priority, eid)``.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        # One FIFO bucket per priority level for zero-delay events; all
        # entries in a bucket share time == self._now (the clock cannot
        # advance while any bucket is non-empty, since a bucket entry is
        # always <= any heap entry at a later time).
        self._buckets: tuple[deque, ...] = (deque(), deque(), deque())
        self._eid_n = 0
        self._active_process: Optional[Process] = None
        #: Processes not yet ended, in creation order.
        self._live: dict[Process, None] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL,
                 delay: float = 0.0) -> None:
        """Schedule ``event``'s callbacks to run after ``delay``.

        Low-level entry point for callback-driven components that need
        an event to fire without carrying a value (e.g. the network's
        message carries); most code should use :meth:`Event.succeed` /
        :meth:`Event.fail` or :meth:`timeout` instead.
        """
        self._schedule(event, priority, delay)

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        if delay < 0:
            raise ScheduleInPastError(self._now, self._now + delay)
        event._scheduled = True
        self._eid_n = eid = self._eid_n + 1
        if delay == 0.0 and priority < 3:
            self._buckets[priority].append((self._now, priority, eid, event))
        else:
            heappush(self._queue, (self._now + delay, priority, eid, event))

    def schedule_at(self, event: Event, when: float) -> None:
        """Schedule ``event``'s callbacks to run at the absolute time
        ``when`` (normal priority), in the same ``(time, priority, eid)``
        order as everything else.  For a component that has computed an
        instant rather than a delay — the booked bus of
        :mod:`repro.network.graph` — and needs exactly that float:
        ``now + (when - now)`` is not ``when``."""
        if when < self._now:
            raise ScheduleInPastError(self._now, when)
        event._scheduled = True
        self._eid_n = eid = self._eid_n + 1
        heappush(self._queue, (when, PRIORITY_NORMAL, eid, event))

    def discard_pending(self) -> None:
        """Drop everything still scheduled, callbacks included, and close
        every process still suspended: the owner is done with this
        environment.  Scheduled events point back at it, and their
        callbacks at whoever waits for them, so a schedule left
        non-empty keeps the whole simulation in reference cycles; and a
        generator closed here, not by its deallocator, raises into the
        owner instead of being reported as unraisable.  A close that
        raises still leaves nothing behind: the schedule is cleared and
        the other processes closed before the error propagates."""
        try:
            while self._live:
                self._live.popitem()[0]._generator.close()
        finally:
            for pending in (self._queue, *self._buckets):
                for _when, _priority, _eid, event in pending:
                    event.callbacks = None
                pending.clear()
            if self._live:
                self.discard_pending()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        b0, b1, b2 = self._buckets
        if b0 or b1 or b2:
            return self._now  # bucket entries fire at the current instant
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event (advancing the clock)."""
        # Among buckets the winner is the head of the lowest-priority-index
        # non-empty deque (all bucket entries share time == now, and each
        # deque is FIFO in eid); that candidate still has to beat the heap
        # top, which may hold an earlier (time, priority, eid) entry.
        entry = bucket = None
        for dq in self._buckets:
            if dq:
                entry = dq[0]
                bucket = dq
                break
        queue = self._queue
        if entry is None:
            if not queue:
                raise SimulationError("step() on an empty schedule")
            entry = heappop(queue)
        elif queue and queue[0] < entry:
            entry = heappop(queue)
        else:
            bucket.popleft()
        when, _prio, _eid, event = entry
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return  # event was already processed (should not happen)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the schedule drains, a time is reached, or an event fires.

        Returns the value of ``until`` when it is an event; otherwise None.
        """
        queue = self._queue
        b0, b1, b2 = self._buckets
        step = self.step
        if until is None:
            while queue or b0 or b1 or b2:
                step()
            return None
        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None:
                if not (queue or b0 or b1 or b2):
                    raise SimulationError(
                        "schedule drained before the awaited event fired")
                step()
            if not stop._ok:
                raise stop._value
            return stop._value
        horizon = float(until)
        if horizon < self._now:
            raise ScheduleInPastError(self._now, horizon)
        # Bucket entries are always at self._now <= horizon inside this
        # loop, so only the heap top needs the horizon comparison.
        while (b0 or b1 or b2) or (queue and queue[0][0] <= horizon):
            step()
        self._now = max(self._now, horizon)
        return None
