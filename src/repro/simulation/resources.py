"""Mutual-exclusion resources for the simulation kernel.

:class:`Resource` is a FIFO mutex — used for the per-link wires and the
per-host network interfaces.  Its holders are their own hold events:
``acquire(holder)`` grants at once when the resource is free, else the
:meth:`~Resource.release` that hands it to the head of the queue grants;
either way the grant sets ``holder.queued`` (the seconds it waited) and
schedules ``holder`` itself ``holder.hold`` seconds ahead.  A grant costs
no event beyond that hold.

``request()`` is the same for a simulated process: a holder with no hold,
whose value is its wait::

    req = bus.request()
    yield req
    yield env.timeout(transmit_time)
    bus.release(req)

The network's holders are ``repro.network.graph``'s ``_Carry`` (one per
routed frame) and ``_Chain`` (one per run of sends).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Optional

from .engine import PRIORITY_NORMAL as NORMAL, Environment, Event
from .errors import SimulationError

__all__ = ["Resource"]


class _Request(Event):
    """A holder with no hold: it fires at its grant, valued its wait."""

    __slots__ = ()
    hold = 0.0
    queued = Event._value  # the grant's wait is the request's value


class Resource:
    """A FIFO mutex: one holder at a time, waiters served in request order.

    A holder is an :class:`Event` with its ``callbacks`` set and a
    ``hold`` in seconds.  Its grant schedules it as the engine schedules
    any event with that delay at normal priority (a zero hold goes to the
    current instant's bucket), with the next insertion number, at the
    instant of the grant: a handed-over waiter is scheduled inside the
    ``release`` that hands it over, before its releaser does anything
    else.
    """

    __slots__ = ("env", "name", "_holder", "_waiting", "_abandoned")

    def __init__(self, env: Environment, name: str = "resource") -> None:
        self.env = env
        self.name = name
        #: Whoever holds the resource; ``None`` while it is free.
        self._holder: Optional[Event] = None
        #: ``(holder, time of the request)`` per waiter.
        self._waiting: deque[tuple[Event, float]] = deque()
        self._abandoned = False

    @property
    def in_use(self) -> int:
        return 0 if self._holder is None else 1

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self, holder: Event) -> None:
        """Grant ``holder`` the resource now if it is free, else queue it
        for the :meth:`release` that hands it over."""
        if self._holder is None:
            self._holder = holder
            self._grant(holder, 0.0)
        else:
            self._waiting.append((holder, self.env._now))

    def _grant(self, holder: Event, waited: float) -> None:
        holder.queued = waited
        env = self.env
        env._eid_n = eid = env._eid_n + 1
        if holder.hold:
            heappush(env._queue, (env._now + holder.hold, NORMAL, eid, holder))
        else:  # Environment._schedule's zero-delay bucket
            env._buckets[NORMAL].append((env._now, NORMAL, eid, holder))

    def request(self) -> Event:
        """Return an event that fires once the resource is acquired."""
        req = _Request(self.env)
        self.acquire(req)
        return req

    def release(self, holder: Event) -> None:
        """Release the holder (or cancel a queued one)."""
        if holder is not self._holder:
            for i, entry in enumerate(self._waiting):
                if entry[0] is holder:  # cancel while queued
                    del self._waiting[i]
                    return
            if self._abandoned:
                return  # a suspended sender stopped after the run
            raise SimulationError("release of a request that was never granted")
        if not self._waiting:
            self._holder = None
            return
        self._holder, since = self._waiting.popleft()
        self._grant(self._holder, self.env._now - since)

    def abandon(self) -> None:
        """Forget the holder and every waiter: the simulation is over.  A
        holder's callbacks point at whoever waits for it, which usually
        points back at this resource's owner — reference cycles for as
        long as the entry stays.  A holder finalised later (a suspended
        sender's chain being stopped) releases into the void, silently."""
        self._abandoned = True
        for holder in (self._holder, *(w[0] for w in self._waiting)):
            if holder is not None:
                holder.callbacks = None
        self._holder = None
        self._waiting.clear()
