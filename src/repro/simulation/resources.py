"""Mutual-exclusion resources for the simulation kernel.

:class:`Resource` is a FIFO mutex — used for the per-link wires and the
per-host network interfaces.  It has two entrances over **one** FIFO
queue:

* ``acquire(holder, on_grant)``, the callback entrance: ``on_grant(waited)``
  is *called, not scheduled*, at the instant of the grant — by ``acquire``
  itself when the resource is free, by the ``release`` that hands it to
  the next waiter otherwise.  A grant costs no engine event.
* ``request()``, the event entrance: the same, with a grant callback that
  triggers the returned event.  Inside a simulated process::

    req = bus.request()
    yield req
    yield env.timeout(transmit_time)
    bus.release(req)

The network's holders (``repro.network.graph``'s ``_Carry`` per routed
frame, ``_Chain`` per run of sends) use ``acquire`` and are their own
hold events: one engine event per hold, queued or not.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .engine import Environment, Event
from .errors import SimulationError

__all__ = ["Resource"]


class _Request(Event):
    __slots__ = ()


class Resource:
    """A FIFO mutex: one holder at a time, waiters served in request order.

    Contract of the callback grant: a holder that answers ``on_grant`` by
    scheduling its hold does so at the instant a zero-delay grant event
    would have been *scheduled*, not *processed* — the same ``now``, so
    the same due time (``now + hold``), and since grant events fired FIFO
    in the order they were scheduled, holds started this way (every carry
    stage, every frame of a chain of sends) keep their relative order.
    The only event such a hold can overtake is one that non-resource
    code schedules in the same instant with a bit-equal due time.
    """

    __slots__ = ("env", "name", "_holder", "_waiting", "_abandoned",
                 "total_requests", "total_wait_time")

    def __init__(self, env: Environment, name: str = "resource") -> None:
        self.env = env
        self.name = name
        #: Whoever holds the resource; ``None`` while it is free.
        self._holder: Optional[object] = None
        #: ``(holder, on_grant, time of the request)`` per waiter.
        self._waiting: deque[tuple[object, Callable[[float], object],
                                   float]] = deque()
        self._abandoned = False
        # -- statistics (for contention analysis / tests) -----------------
        self.total_requests = 0
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        return 0 if self._holder is None else 1

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self, holder: object,
                on_grant: Callable[[float], object]) -> None:
        """Call ``on_grant(waited)`` once ``holder`` has the resource —
        now if it is free, else from the :meth:`release` that hands it
        over.  ``holder`` (not ``None``) is what :meth:`release` takes
        back."""
        self.total_requests += 1
        if self._holder is None:
            self._holder = holder
            on_grant(0.0)
        else:
            self._waiting.append((holder, on_grant, self.env.now))

    def request(self) -> Event:
        """Return an event that fires once the resource is acquired."""
        req = _Request(self.env)
        self.acquire(req, req.succeed)
        return req

    def release(self, holder: object) -> None:
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
        self._holder, on_grant, since = self._waiting.popleft()
        waited = self.env.now - since
        self.total_wait_time += waited
        on_grant(waited)

    def abandon(self) -> None:
        """Forget the holder and every waiter: the simulation is over.  A
        queued waiter's grant callback points at whoever waits for it,
        which usually points back at this resource's owner — reference
        cycles for as long as the entry (or a request event's callback
        list) stays.  A holder finalised later (a suspended sender's
        chain being stopped) releases into the void, silently."""
        self._abandoned = True
        for holder in (self._holder, *(w[0] for w in self._waiting)):
            if isinstance(holder, Event):
                holder.callbacks = None
        self._holder = None
        self._waiting.clear()
