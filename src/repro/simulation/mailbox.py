"""Slotted mailboxes with predicate matching for simulated message passing.

A :class:`Mailbox` decouples senders from receivers: ``put`` never blocks
(workstation memory is not modeled as a bottleneck), while ``get`` returns
an event that fires when a matching item is available.  ``get`` accepts an
optional predicate so a receiver can wait for, e.g., only messages of a
given tag while unrelated traffic queues up — this is how the DLB
protocols wait for "the instruction for epoch j" while stray interrupts
for the same epoch sit in the box.

Storage is *slotted*: queued items are bucketed by ``(tag, epoch)`` (both
read off the item, ``None`` when absent) with a global arrival sequence
number preserving FIFO order across slots.  A structured
:class:`SlotFilter` — what the message layer passes for tag/epoch
receives — resolves to a single slot, so the common protocol receive is
an O(1) deque pop instead of a predicate scan over every queued item.
An :class:`EpochBoundFilter` (what ``stale_predicate`` builds) matches
whole slots by key, so draining superseded-epoch traffic drops entire
buckets without touching individual items.  Plain callables still work
everywhere a predicate is accepted and fall back to a seq-ordered scan.

A ``notify`` hook fires on every deposit; the node runtime uses it to
interrupt a computing process when a synchronization interrupt arrives.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .engine import Environment, Event

__all__ = ["Mailbox", "SlotFilter", "EpochBoundFilter"]

Predicate = Callable[[Any], bool]


class SlotFilter:
    """Structured predicate: exact tag and/or epoch plus an optional match.

    Carrying ``(tag, epoch)`` as data instead of closing over them lets
    the mailbox jump straight to the matching slot rather than
    predicate-scanning every queued item.  Instances are callable with
    the same semantics as the closure they replace, so they behave as
    plain predicates anywhere one is expected (waiter wake-up on ``put``,
    the thread backend's lock-based mailboxes).
    """

    __slots__ = ("tag", "epoch", "match")

    def __init__(self, tag: Any = None, epoch: Optional[int] = None,
                 match: Optional[Predicate] = None) -> None:
        self.tag = tag
        self.epoch = epoch
        self.match = match

    def __call__(self, item: Any) -> bool:
        if self.tag is not None and getattr(item, "tag", None) is not self.tag:
            return False
        if self.epoch is not None and getattr(item, "epoch", None) != self.epoch:
            return False
        match = self.match
        return match is None or match(item)


class EpochBoundFilter:
    """Predicate matching items of the given tags below an epoch bound.

    The slot-level test :meth:`covers_slot` decides for a whole
    ``(tag, epoch)`` bucket at once, which is what makes stale-epoch
    drains O(slots) instead of O(items).
    """

    __slots__ = ("max_epoch", "tags", "inclusive")

    def __init__(self, max_epoch: int, tags: Optional[tuple] = None,
                 *, inclusive: bool = False) -> None:
        self.max_epoch = max_epoch
        self.tags = tags
        self.inclusive = inclusive

    def covers_slot(self, key: tuple) -> bool:
        tag, epoch = key
        if not isinstance(epoch, int):
            return False
        if self.tags is not None and tag not in self.tags:
            return False
        return epoch <= self.max_epoch if self.inclusive else epoch < self.max_epoch

    def __call__(self, item: Any) -> bool:
        if self.tags is not None and getattr(item, "tag", None) not in self.tags:
            return False
        epoch = getattr(item, "epoch", None)
        if not isinstance(epoch, int):
            return False
        return epoch <= self.max_epoch if self.inclusive else epoch < self.max_epoch


class _GetRequest(Event):
    __slots__ = ("predicate",)

    def __init__(self, env: Environment, predicate: Optional[Predicate]) -> None:
        super().__init__(env)
        self.predicate = predicate


def _slot_key(item: Any) -> tuple:
    return (getattr(item, "tag", None), getattr(item, "epoch", None))


class Mailbox:
    """An unbounded FIFO store of items with predicate-filtered gets."""

    def __init__(self, env: Environment, name: str = "mailbox") -> None:
        self.env = env
        self.name = name
        # (tag, epoch) -> deque[(seq, item)]; seq is a global arrival
        # counter, so merging slot heads by seq recovers overall FIFO.
        self._slots: dict[tuple, deque] = {}
        self._seq = 0
        self._count = 0
        self._getters: list[_GetRequest] = []
        self.notify: Optional[Callable[[Any], None]] = None
        self.put_count = 0
        self.got_count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def items(self) -> list[Any]:
        """Queued items in arrival order (a fresh list, not live storage)."""
        entries = [e for dq in self._slots.values() for e in dq]
        entries.sort()
        return [item for _seq, item in entries]

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the first matching waiter, if any."""
        self.put_count += 1
        for idx, getter in enumerate(self._getters):
            pred = getter.predicate
            if pred is None or pred(item):
                del self._getters[idx]
                self.got_count += 1
                getter.succeed(item)
                break
        else:
            self._seq = seq = self._seq + 1
            key = _slot_key(item)
            dq = self._slots.get(key)
            if dq is None:
                dq = self._slots[key] = deque()
            dq.append((seq, item))
            self._count += 1
        if self.notify is not None:
            self.notify(item)

    # -- matching core ---------------------------------------------------
    def _find(self, predicate: Optional[Predicate]):
        """Locate the seq-oldest matching item: (key, deque, index, item)."""
        slots = self._slots
        if type(predicate) is SlotFilter:
            tag, epoch, match = predicate.tag, predicate.epoch, predicate.match
            if tag is not None and epoch is not None:
                key = (tag, epoch)
                dq = slots.get(key)
                if dq is None:
                    return None
                if match is None:
                    return (key, dq, 0, dq[0][1])
                for idx, (_seq, item) in enumerate(dq):
                    if match(item):
                        return (key, dq, idx, item)
                return None
            candidates = [(k, dq) for k, dq in slots.items()
                          if (tag is None or k[0] is tag)
                          and (epoch is None or k[1] == epoch)]
            predicate = match
        else:
            candidates = slots.items()
        best = None  # (seq, key, deque, index, item)
        for key, dq in candidates:
            first_seq = dq[0][0]
            if best is not None and first_seq > best[0]:
                continue  # even the oldest entry here is newer
            if predicate is None:
                best = (first_seq, key, dq, 0, dq[0][1])
                continue
            for idx, (seq, item) in enumerate(dq):
                if best is not None and seq > best[0]:
                    break
                if predicate(item):
                    best = (seq, key, dq, idx, item)
                    break
        if best is None:
            return None
        return best[1:]

    def _remove(self, key: tuple, dq: deque, idx: int) -> None:
        if idx == 0:
            dq.popleft()
        else:
            del dq[idx]
        if not dq:
            del self._slots[key]
        self._count -= 1
        self.got_count += 1

    # -- receiving -------------------------------------------------------
    def get(self, predicate: Optional[Predicate] = None) -> Event:
        """Return an event that fires with the first matching item.

        Items are matched in FIFO order; a matched item is removed from
        the box.  If no item currently matches, the request queues until
        a matching ``put``.
        """
        request = _GetRequest(self.env, predicate)
        found = self._find(predicate)
        if found is not None:
            key, dq, idx, item = found
            self._remove(key, dq, idx)
            request.succeed(item)
            return request
        self._getters.append(request)
        return request

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

    def peek(self, predicate: Optional[Predicate] = None) -> Optional[Any]:
        """Return (without removing) the first matching queued item."""
        found = self._find(predicate)
        return found[3] if found is not None else None

    def take(self, predicate: Optional[Predicate] = None) -> Optional[Any]:
        """Remove and return the first matching queued item, or ``None``.

        Unlike :meth:`get` this never blocks and never creates an event;
        it is the non-blocking poll used at iteration boundaries.
        """
        found = self._find(predicate)
        if found is None:
            return None
        key, dq, idx, item = found
        self._remove(key, dq, idx)
        return item

    def drain(self, predicate: Optional[Predicate] = None) -> list[Any]:
        """Remove and return all currently queued matching items."""
        slots = self._slots
        removed: list[tuple] = []
        if predicate is None:
            for dq in slots.values():
                removed.extend(dq)
            slots.clear()
        elif isinstance(predicate, EpochBoundFilter):
            # The slot key decides for every item in the bucket at once.
            for key in [k for k in slots if predicate.covers_slot(k)]:
                removed.extend(slots.pop(key))
        else:
            for key in list(slots):
                dq = slots[key]
                kept: deque = deque()
                for entry in dq:
                    if predicate(entry[1]):
                        removed.append(entry)
                    else:
                        kept.append(entry)
                if len(kept) != len(dq):
                    if kept:
                        slots[key] = kept
                    else:
                        del slots[key]
        removed.sort()
        self._count -= len(removed)
        self.got_count += len(removed)
        return [item for _seq, item in removed]
