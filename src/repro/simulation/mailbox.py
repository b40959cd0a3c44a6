"""The simulator's wait primitive over one host's inbox.

A :class:`Mailbox` is to the discrete-event backend what the thread
backend's condition variable is to its inbox: the inbox it is handed
(:class:`repro.message.inbox.Inbox`, the one mailbox rule of every
backend) buffers and matches, the mailbox adds blocking.  ``put`` never
blocks (workstation memory is not modeled as a bottleneck); ``get(spec)``
returns an event that fires with the first item the inbox lets ``spec``
take — at once, or at the first such ``put``, pending getters served in
registration order.  A spec is any object with ``matches`` (an
:class:`~repro.protocol.commands.AwaitMessage`).  ``gather(spec)`` is
the wait of an untimed gather: one event, fired once every one of
``spec.srcs`` has a message ``spec`` accepts, with all of them.

A ``notify`` hook fires on every deposit; the node runtime uses it to
interrupt a computing process when a synchronization interrupt arrives.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Environment, Event

__all__ = ["Mailbox"]


class _GetRequest(Event):
    __slots__ = ("spec", "missing")

    def __init__(self, env: Environment, spec: Any,
                 missing: Optional[set] = None) -> None:
        super().__init__(env)
        self.spec = spec
        #: A gather's sources with nothing buffered yet; ``None``: a get.
        self.missing = missing


class Mailbox:
    """Blocking gets over ``inbox``; the inbox holds what nobody awaits."""

    def __init__(self, env: Environment, inbox: Any,
                 name: str = "mailbox") -> None:
        self.env = env
        self.inbox = inbox
        self.name = name
        self._getters: list[_GetRequest] = []
        self.notify: Optional[Callable[[Any], None]] = None
        self.put_count = 0
        self.got_count = 0

    def __len__(self) -> int:
        return len(self.inbox)

    @property
    def items(self) -> list[Any]:
        """Buffered items in arrival order (a fresh list)."""
        return self.inbox.items

    def put(self, item: Any) -> None:
        """Deposit ``item``: to the first pending getter that takes it,
        else into the inbox.  A membership notice ends the first pending
        wait, get or gather, as the inbox would hand it out first."""
        self.put_count += 1
        inbox = self.inbox
        if self._getters and inbox.is_notice(item):
            self._served(self._getters.pop(0), item)
        else:
            accepts = inbox.accepts
            for idx, getter in enumerate(self._getters):
                if not accepts(getter.spec, item):
                    continue
                missing = getter.missing
                if missing is not None:
                    if item.src not in missing:
                        continue
                    # A gather takes the first message of each source,
                    # all at once when the last is in; till then they
                    # wait in the inbox.
                    inbox.post(item)
                    missing.discard(item.src)
                    if not missing:
                        del self._getters[idx]
                        self._served(getter, inbox.take_cover(getter.spec))
                    break
                del self._getters[idx]
                self.got_count += 1
                getter.succeed(item)
                break
            else:
                inbox.post(item)
        if self.notify is not None:
            self.notify(item)

    def get(self, spec: Any) -> Event:
        """Return an event that fires with the first item ``spec`` takes.

        A taken item leaves the box.  If nothing buffered matches, the
        request queues until a matching ``put``.
        """
        request = _GetRequest(self.env, spec)
        item = self.inbox.take(spec, self._held() if self._getters else ())
        if item is None:
            self._getters.append(request)
        else:
            self.got_count += 1
            request.succeed(item)
        return request

    def gather(self, spec: Any) -> Event:
        """Return an event that fires once every one of ``spec.srcs`` has
        a message ``spec`` accepts, with the oldest of each in arrival
        order — at once, or at the covering ``put`` — or at once with a
        notice already in the inbox, which ends the wait first
        (:meth:`Inbox.take_cover <repro.message.inbox.Inbox.take_cover>`).
        Until then the first message of each source waits in the inbox,
        where a :meth:`get` or :meth:`take` passes over it.  A later
        message of a source it holds goes on to the next pending getter,
        as to a get.
        """
        missing = self.inbox.uncovered(spec)
        request = _GetRequest(self.env, spec, missing)
        if missing:
            self._getters.append(request)
        else:
            self._served(request, self.inbox.take_cover(spec))
        return request

    def _held(self) -> set[int]:
        """The ids of the messages that pending gathers hold."""
        return {id(msg) for getter in self._getters
                if getter.missing is not None
                for msg in self.inbox.cover(getter.spec)}

    def _served(self, request: _GetRequest, got: Any) -> None:
        """End a gather with its batch, or a wait with a notice."""
        self.got_count += len(got) if isinstance(got, list) else 1
        request.succeed(got)

    def cancel(self, request: Event) -> None:
        """Withdraw a pending :meth:`get` request.

        Used by timed receives: when the timeout wins the race, the
        getter must be removed so it does not silently consume a later
        matching deposit.  Cancelling a request that already matched (or
        was never queued) is a no-op.
        """
        for idx, getter in enumerate(self._getters):
            if getter is request:
                del self._getters[idx]
                # It will never fire: stop pointing at whoever waited
                # (an ``any_of`` with the timeout points back at it).
                getter.callbacks = None
                return

    def cancel_all(self) -> None:
        """Withdraw every pending getter (the owner died mid-receive).

        Without this, a stopped process's queued get request would still
        match-and-consume the next deposit, delivering the item to a
        callback-less event — i.e. silently destroying it.
        """
        for getter in self._getters:
            getter.callbacks = None
        self._getters.clear()

    def take(self, spec: Any) -> Optional[Any]:
        """Remove and return the first item ``spec`` takes, or ``None``.

        Unlike :meth:`get` this never blocks and never creates an event;
        it is the non-blocking poll used at iteration boundaries.
        """
        item = self.inbox.take(spec, self._held() if self._getters else ())
        if item is not None:
            self.got_count += 1
        return item

    def drain(self, spec: Any = None) -> list[Any]:
        """Remove and return every buffered item ``spec`` matches; with
        no spec, empty the inbox (:meth:`Inbox.drain
        <repro.message.inbox.Inbox.drain>`)."""
        items = self.inbox.drain(spec)
        self.got_count += len(items)
        return items
