"""Capacity-limited resources for the simulation kernel.

:class:`Resource` models mutual exclusion with FIFO queueing — used for
the shared Ethernet bus and per-host network interfaces.  Requests are
events; the canonical usage inside a simulated process is::

    req = bus.request()
    yield req
    yield env.timeout(transmit_time)
    bus.release(req)

or, equivalently, ``yield from bus.use(transmit_time)``.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from .engine import Environment, Event
from .errors import SimulationError

__all__ = ["Resource"]


class _Request(Event):
    __slots__ = ()


class Resource:
    """A FIFO resource with integer capacity (default: mutual exclusion)."""

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[_Request] = set()
        self._waiting: deque[_Request] = deque()
        self._abandoned = False
        # -- statistics (for contention analysis / tests) -----------------
        self.total_requests = 0
        self.total_wait_time = 0.0
        self._request_times: dict[int, float] = {}

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Event:
        """Return an event that fires once the resource is acquired."""
        req = _Request(self.env)
        self.total_requests += 1
        if len(self._users) < self.capacity:
            # Granted at once: zero wait, so skip the timestamp churn —
            # this is the overwhelmingly common case on the hot path.
            self._users.add(req)
            req.succeed()
        else:
            self._request_times[id(req)] = self.env.now
            self._waiting.append(req)
        return req

    def release(self, request: Event) -> None:
        """Release a previously granted request."""
        if request in self._users:
            self._users.remove(request)
        else:
            # Allow cancelling a queued request.
            try:
                self._waiting.remove(request)  # type: ignore[arg-type]
                self._request_times.pop(id(request), None)
                return
            except ValueError:
                if self._abandoned:
                    return  # a suspended ``use`` closed after the run
                raise SimulationError("release of a request that was never granted")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            self._account_wait(nxt)
            nxt.succeed()

    def abandon(self) -> None:
        """Forget every holder and waiter: the simulation is over.  A
        queued request's callback points at whoever waits for it, which
        usually points back at the request and at this resource's owner
        — reference cycles for as long as the callback stays.  A holder
        finalised later (a suspended :meth:`use` being closed) releases
        into the void, silently."""
        self._abandoned = True
        for request in (*self._users, *self._waiting):
            request.callbacks = None
        self._users.clear()
        self._waiting.clear()
        self._request_times.clear()

    def _account_wait(self, req: _Request) -> None:
        start = self._request_times.pop(id(req), None)
        if start is not None:
            self.total_wait_time += self.env.now - start

    def use(self, hold_time: float) -> Generator[Event, None, None]:
        """Acquire, hold for ``hold_time`` simulated seconds, release."""
        req = self.request()
        yield req
        try:
            yield self.env.timeout(hold_time)
        finally:
            self.release(req)
