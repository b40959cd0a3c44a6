"""The one mailbox rule, on every backend.

A participant's :class:`Inbox` buffers what its transport delivers; the
transport adds only the wait primitive — a condition variable on
threads, a queue poll in a worker process or a socket worker, and the
simulator's :class:`~repro.simulation.mailbox.Mailbox`, whose pending
getters are served by :meth:`Inbox.accepts` before anything is posted.
"""

from __future__ import annotations

from typing import Any, Optional

from .messages import Message, Tag

__all__ = ["Inbox"]


def _names_interrupt(spec: Any) -> bool:
    tags = spec.tags
    return tags is not None and Tag.INTERRUPT in tags


class Inbox:
    """One participant's inbox; a transport adds the wait primitive.

    Messages that do not match the current wait stay buffered in arrival
    order; a wait is a spec with ``matches`` (an
    :class:`~repro.protocol.commands.AwaitMessage`).  INTERRUPTs fold
    into per-epoch flags, the first interrupt of each epoch kept, that
    the compute loop polls at iteration boundaries; only a wait whose
    ``tags`` name ``Tag.INTERRUPT`` (the periodic idle wait) takes one.
    Membership notices — the ``PeerDead`` / ``PeerLeft`` /
    ``PeerJoined`` events a backend's failure detector posts — pre-empt
    any buffered message.

    ``post`` / ``take`` need the transport's own exclusion.  The flags
    may be polled by a computing thread while another posts: polling
    reads one key, and draining raises a floor instead of rebuilding
    the flags, so the two sides share no compound operation.
    """

    def __init__(self) -> None:
        self._buffer: list[Message] = []
        self._notices: list[Any] = []
        self._interrupts: dict[int, Message] = {}  # epoch -> the first
        self._drained = -1

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def items(self) -> list[Message]:
        """Buffered messages in arrival order (a fresh list)."""
        return list(self._buffer)

    def accepts(self, spec: Any, msg: Message) -> bool:
        """Whether a wait on ``spec`` takes ``msg``: ``spec.matches``,
        and an INTERRUPT only where ``spec`` names its tag and its epoch
        is not drained."""
        if msg.tag is Tag.INTERRUPT:
            return msg.epoch > self._drained and _names_interrupt(spec) \
                and spec.matches(msg)
        return spec.matches(msg)

    def post(self, item: Any) -> None:
        if not isinstance(item, Message):
            self._notices.append(item)
        elif item.tag is Tag.INTERRUPT:
            self._interrupts.setdefault(item.epoch, item)
        else:
            self._buffer.append(item)

    def take(self, spec: Any) -> Any:
        """The next notice, else the oldest buffered message ``spec``
        accepts, else the first flagged interrupt it accepts, else
        ``None`` (nothing deliverable yet)."""
        if self._notices:
            return self._notices.pop(0)
        for i, msg in enumerate(self._buffer):
            if spec.matches(msg):
                return self._buffer.pop(i)
        if _names_interrupt(spec):
            for epoch, msg in self._interrupts.items():
                if self.accepts(spec, msg):
                    del self._interrupts[epoch]
                    return msg
        return None

    def uncovered(self, spec: Any) -> set[int]:
        """The coverage query of an untimed gather (``AwaitMessage``'s
        gather contract): those of ``spec.srcs`` with no buffered
        message ``spec`` accepts — none while a notice is pending, which
        ends the wait first."""
        if self._notices:
            return set()
        missing = set(spec.srcs)
        for msg in self._buffer:
            if msg.src in missing and spec.matches(msg):
                missing.discard(msg.src)
        return missing

    def take_cover(self, spec: Any) -> Any:
        """What ends an untimed gather once nothing is :meth:`uncovered`:
        the next notice, else the oldest buffered message ``spec``
        accepts from each of ``spec.srcs``, in arrival order."""
        if self._notices:
            return self._notices.pop(0)
        wanted, batch, kept = set(spec.srcs), [], []
        for msg in self._buffer:
            if msg.src in wanted and spec.matches(msg):
                wanted.discard(msg.src)
                batch.append(msg)
            else:
                kept.append(msg)
        self._buffer = kept
        return batch

    def drain(self, spec: Any = None) -> list[Message]:
        """Remove and return the buffered messages ``spec`` matches, in
        arrival order.  With no spec, empty the inbox: every message,
        every flag, and the floor, so that a next loop's epochs start
        again at 0."""
        if spec is None:
            out, self._buffer = self._buffer, []
            self._interrupts.clear()
            self._drained = -1
            return out
        out, kept = [], []
        for msg in self._buffer:
            (out if spec.matches(msg) else kept).append(msg)
        self._buffer = kept
        return out

    def has_interrupt(self, epoch: int) -> bool:
        return epoch > self._drained and epoch in self._interrupts

    def interrupter(self, epoch: int) -> Optional[int]:
        """Who first interrupted ``epoch`` (``None``: nobody did, or its
        flags were drained)."""
        msg = self._interrupts.get(epoch) if epoch > self._drained else None
        return None if msg is None else msg.src

    def drain_interrupts(self, up_to_epoch: int) -> None:
        """Forget interrupt flags for ``up_to_epoch`` and older."""
        self._drained = max(self._drained, up_to_epoch)
