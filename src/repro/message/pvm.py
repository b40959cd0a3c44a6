"""A PVM-flavoured message-passing layer over the simulated bus.

The original system used PVM 3; this module provides the same
programming surface the DLB run-time needs — asynchronous tagged sends,
blocking filtered receives, and non-blocking probes — with every
byte charged to the shared-bus network model.

Usage inside a simulated process::

    yield from vm.send(msg)                 # pays sender-side overhead
    yield from vm.multicast(msgs)           # back to back, one resume
    msg = yield vm.recv(me, AwaitMessage(tags=(Tag.PROFILE,)))  # blocks
    msg = vm.poll(me, spec)                 # non-blocking: None if none

A receive names what it accepts with a spec (anything with ``matches``;
the protocol's :class:`~repro.protocol.commands.AwaitMessage`), and
each host's :class:`~repro.simulation.mailbox.Mailbox` waits over an
:class:`~repro.message.inbox.Inbox`, the mailbox rule of every backend.

Both sends are one chain of frames through the sender's NIC
(:meth:`~repro.network.graph.GraphNetwork.transmit_frames`): the
process sleeps through the whole run and resumes once, after the last
hold, at the instant and place in the schedule where frame-by-frame
sends would have resumed it.

``vm.inbox[i].notify`` may be set to observe arrivals (the node runtime
uses it to interrupt a computing process when an INTERRUPT lands).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Iterator, Optional

from ..network import NetworkParameters, SharedBusNetwork
from ..simulation import Environment, Event, Mailbox
from .inbox import Inbox
from .messages import Message, Tag

__all__ = ["VirtualMachine"]


class VirtualMachine:
    """Message transport between ``n_hosts`` simulated PVM tasks."""

    def __init__(self, env: Environment, n_hosts: int,
                 params: Optional[NetworkParameters] = None,
                 network: Optional[SharedBusNetwork] = None) -> None:
        self.env = env
        self.n_hosts = n_hosts
        self.network = network or SharedBusNetwork(env, n_hosts, params)
        if self.network.n_hosts != n_hosts:
            raise ValueError("network size does not match host count")
        self.inbox = [Mailbox(env, Inbox(), name=f"inbox{i}")
                      for i in range(n_hosts)]
        self.network.on_deliver = self._on_deliver
        #: Messages sent, per message class: a class has one tag, and a
        #: class hashes in C where an ``Enum`` member hashes in Python.
        self._sent: dict[type, int] = {}

    @property
    def sent_by_tag(self) -> dict[Tag, int]:
        """Messages sent so far, per tag (a copy)."""
        counts = {t: 0 for t in Tag}
        for cls, n in self._sent.items():
            counts[cls.tag] = counts.get(cls.tag, 0) + n
        return counts

    def _on_deliver(self, dst: int, item: Message) -> None:
        self.inbox[dst].put(item)

    # -- sending -----------------------------------------------------------
    def send(self, msg: Message) -> Generator[Event, None, Event]:
        """Send ``msg`` (a generator to ``yield from``): a chain of one.

        Completes after the sender-side overhead; returns the delivery
        event (rarely needed — receives are the usual synchronization).
        """
        return self.multicast((msg,))

    def multicast(self, msgs: Iterable[Message]
                  ) -> Generator[Event, None, Optional[Event]]:
        """Send several messages back-to-back (a generator to ``yield
        from``); returns the last one's delivery event.

        PVM over Ethernet has no hardware multicast: the sends serialize
        at the sender, which is exactly the one-to-all cost of §6.1.  The
        sender sleeps through the whole run and resumes once
        (:meth:`~repro.network.graph.GraphNetwork.transmit_frames`);
        ``msgs`` is read one message at a time, as each send begins.
        """
        return self.network.transmit_frames(self._frames(msgs))

    def _frames(self, msgs: Iterable[Message]
                ) -> Iterator[tuple[int, int, int, Message]]:
        sent = self._sent
        for msg in msgs:
            cls = type(msg)
            sent[cls] = sent.get(cls, 0) + 1
            yield msg.src, msg.dst, msg.nbytes, msg

    # -- receiving ---------------------------------------------------------
    def recv(self, host: int, spec: Any) -> Event:
        """Event firing with the next message for ``host`` that ``spec``
        accepts."""
        return self.inbox[host].get(spec)

    def poll(self, host: int, spec: Any) -> Optional[Message]:
        """Non-blocking receive; ``None`` when nothing matches (pvm_probe)."""
        return self.inbox[host].take(spec)

    def drain(self, host: int, spec: Any = None) -> list[Message]:
        """Remove and return every queued message for ``host`` that
        ``spec`` matches (all of them, without one)."""
        return self.inbox[host].drain(spec)
