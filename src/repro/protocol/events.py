"""Events fed *into* the protocol state machines.

An event is a fact about the outside world — a message arrived, a
compute slice ended, a timer expired, a failure detector spoke.  The
protocol machines (:class:`~repro.protocol.worker.WorkerProtocol`,
:class:`~repro.protocol.balancer.BalancerProtocol`) consume events and
emit :mod:`~repro.protocol.commands`; they never learn *how* the event
was produced (simulated clock, real thread, or a hand-written test
script).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..message.messages import Message

__all__ = [
    "ProtocolEvent",
    "Start",
    "ComputeDone",
    "MessageReceived",
    "TimerFired",
    "Charged",
    "WorkReclaimed",
    "PeerDead",
    "PeerJoined",
    "PeerLeft",
    "LeaveRequested",
]


@dataclass(frozen=True)
class ProtocolEvent:
    """Base class for everything a backend may feed a protocol object."""


@dataclass(frozen=True)
class Start(ProtocolEvent):
    """The backend has scheduled this participant; begin the loop."""


@dataclass(frozen=True)
class ComputeDone(ProtocolEvent):
    """A compute slice ended.

    ``status`` is ``"finished"`` when the whole current assignment was
    executed, ``"interrupted"`` when the backend stopped at an
    iteration boundary because a synchronization interrupt arrived, or
    ``"deadline"`` when a timer starts this sync (the periodic clock of
    §2.2's ablation) and work may remain: like a finisher, the worker
    then interrupts its group, but it is never ``lone``.  ``"idle"``:
    the block is done but, under that ablation, a finisher does not
    start the sync — the worker waits for its interrupt.
    ``by`` names the sender of that interrupt when the backend knows it
    (``None`` otherwise: a timer, or a resend request doubling as an
    interrupt); only a neighbour-scoped worker reads it, to forward the
    interrupt no further than it must.
    """

    status: str
    by: Optional[int] = None

    def __post_init__(self) -> None:
        if self.status not in ("finished", "interrupted", "deadline",
                               "idle"):
            raise ValueError(f"bad compute status {self.status!r}")


@dataclass(frozen=True)
class MessageReceived(ProtocolEvent):
    """A protocol message was delivered — one the last ``AwaitMessage``
    command's ``matches`` accepted.

    An untimed gather may be delivered whole (``AwaitMessage``'s gather
    contract): ``earlier`` holds the messages that arrived before
    ``msg``, in arrival order; :attr:`msgs` is the batch.
    """

    msg: Message
    earlier: tuple[Message, ...] = ()

    @property
    def msgs(self) -> tuple[Message, ...]:
        return (*self.earlier, self.msg)


@dataclass(frozen=True)
class TimerFired(ProtocolEvent):
    """The timeout armed by the last ``AwaitMessage`` expired with no
    matching message (fault-tolerant mode only)."""


@dataclass(frozen=True)
class Charged(ProtocolEvent):
    """The computation a trailing ``Charge`` command asked for has been
    spent: immediately on a real backend (the calculation that follows
    costs real time there), after the workstation's load model has let
    ``seconds`` of it through in the simulator."""


@dataclass(frozen=True)
class WorkReclaimed(ProtocolEvent):
    """The backend's recovery registry put reclaimed iteration ranges on
    this worker's assignment *after* the group's consensus ``Done``: the
    worker resumes and finishes them alone."""


@dataclass(frozen=True)
class PeerDead(ProtocolEvent):
    """An external failure detector declared ``peer`` dead."""

    peer: int


@dataclass(frozen=True)
class PeerJoined(ProtocolEvent):
    """Elastic membership: a registrar admitted ``peer`` to ``group``.

    Backends that support mid-run joins (the socket backend) feed this
    at an epoch fence, so every member of the group admits the joiner
    at the same synchronization point and the replicated redistribution
    plans stay consistent (see docs/WIRE_PROTOCOL.md, join handshake).
    """

    peer: int
    group: int = 0


@dataclass(frozen=True)
class PeerLeft(ProtocolEvent):
    """Elastic membership: ``peer`` departed on purpose.

    Unlike :class:`PeerDead` this is a *planned* departure — the peer
    handed its residual work back before disconnecting — but the
    surviving protocol transitions are the same: drop the peer from the
    active set and stop waiting on it.
    """

    peer: int


@dataclass(frozen=True)
class LeaveRequested(ProtocolEvent):
    """The backend asks this worker to retire voluntarily, now.

    Only legal between compute iterations (the planned-departure
    analogue of a synchronization interrupt): the worker takes all
    remaining work off its assignment, ships it to the membership
    registrar in a ``leave`` control message, and terminates.
    """
