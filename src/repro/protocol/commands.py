"""Commands emitted *by* the protocol state machines.

A command is an instruction to the execution backend — send this
message, run the current assignment, wait for these tags, charge this
much local computation.  The last command of a batch is its
*continuation* (``StartCompute``, ``AwaitMessage``, ``Charge`` or
``Done``): it names the event the backend feeds next.  Commands carry
no callbacks and no backend handles: they are plain data, so a test can
assert on them directly and any backend (discrete-event simulator, real
threads, processes, sockets) can interpret them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.redistribution import RedistributionPlan
from ..message.messages import Message, Tag

__all__ = [
    "Command",
    "Send",
    "StartCompute",
    "AwaitMessage",
    "Charge",
    "DeclareDead",
    "RecordSync",
    "Emit",
    "Done",
]


@dataclass(frozen=True)
class Command:
    """Base class for everything a protocol object may ask a backend."""


@dataclass(frozen=True)
class Send(Command):
    """Transmit ``msg`` over the backend's transport."""

    msg: Message


@dataclass(frozen=True)
class StartCompute(Command):
    """Execute the participant's current assignment.

    The backend runs iterations (simulated time, or a real CPU-burn
    kernel) until the assignment is drained or a synchronization
    interrupt stops it at an iteration boundary, then feeds back a
    :class:`~repro.protocol.events.ComputeDone` event.  The backend is
    responsible for booking executed ranges into the run statistics and
    for reporting the busy time via ``WorkerProtocol.note_busy``.
    """


@dataclass(frozen=True)
class AwaitMessage(Command):
    """Block until a message this wait accepts is delivered.

    The fields say *exactly* what the wait accepts, so that
    :meth:`matches` can be the mailbox predicate of every backend — the
    simulator's ``Mailbox`` included — and nothing the pump would have
    to put back is ever taken out: ``tags`` is the tag whitelist;
    ``epoch`` (exact) and ``max_epoch`` (ceiling: the hardened gather
    admits older profiles as liveness evidence, never a later sync's),
    ``srcs`` and ``control_kind`` (the one CONTROL kind admitted — a
    work wait takes its sender's ``no-work`` but not its
    ``resend-work``, a diffusion gather a neighbour's ``retire``)
    restrict further when not ``None``.

    ``timeout`` (fault-tolerant mode) bounds the wait: on expiry the
    backend feeds a ``TimerFired`` event instead of a message.  Exactly
    one ``AwaitMessage`` is outstanding at a time.

    The gather contract: while a worker waits on several ``srcs`` with
    no ``timeout``, it answers every message but the last by re-arming
    only — the same wait, less the sources already heard.  So a backend
    may sleep until each source has a message the wait accepts and feed
    the oldest of each in one ``MessageReceived`` (its ``earlier`` in
    arrival order).  The simulator does: one wake-up per gather, at the
    covering arrival — where the resume for the last profile stood —
    and the resumes it drops scheduled nothing, so times and orders are
    unchanged.  Not guaranteed where two of those resumes fell in one
    instant: two profiles reaching one host together (only with a zero
    ``recv_overhead``), or profiles already buffered when the wait
    begins.  There the one wake-up comes earlier among that instant's
    events, which moves a run only if another event ties with what the
    worker schedules next.  A timed (hardened) gather stays one message
    per turn: each arrival restarts its timer.
    """

    tags: tuple[Tag, ...]
    epoch: Optional[int] = None
    srcs: Optional[tuple[int, ...]] = None
    timeout: Optional[float] = None
    max_epoch: Optional[int] = None
    control_kind: Optional[str] = None

    def matches(self, msg: Message) -> bool:
        """Whether ``msg`` satisfies this wait (a ``None`` filter admits
        everything) — the one matching rule of all four backends."""
        return ((self.tags is None or msg.tag in self.tags)
                and (self.epoch is None or msg.epoch == self.epoch)
                and (self.srcs is None or msg.src in self.srcs)
                and (self.max_epoch is None or msg.epoch <= self.max_epoch)
                and (self.control_kind is None
                     or msg.tag is not Tag.CONTROL
                     or msg.kind == self.control_kind))


@dataclass(frozen=True)
class Charge(Command):
    """Model ``seconds`` of local computation (e.g. the replicated
    redistribution calculation).

    As the *last* command of a batch it is the batch's continuation:
    the backend spends the time — the simulator advances the virtual
    clock through the workstation's load model; a real-time backend
    spends nothing, its planning costs real time — and then feeds
    ``Charged``.  The worker pump changes no state until that event, so
    whatever reaches the participant meanwhile (a ``resend-work``
    request, a fencing) sees it as it was before the calculation.
    Anywhere else in a batch (the central balancer's selection and
    service costs) it is priced by exactly one interpreter, the
    simulator's :class:`~repro.runtime.port.SimPort`, which spends it
    in place — pausing the co-located slave meanwhile — before the
    commands behind it run; a real backend's port spends nothing.
    """

    seconds: float


@dataclass(frozen=True)
class DeclareDead(Command):
    """Report ``peer`` to the failure registry (fencing / reclaim)."""

    peer: int


@dataclass(frozen=True)
class RecordSync(Command):
    """Record one synchronization outcome in the run's ledger, which
    also writes the sync's one ``decision`` trace instant.

    Every replica of a group plan reports the same outcome, so records
    of one ``(group, epoch)`` de-duplicate.  With ``part`` set the plan
    is one node's share of a neighbour-local sweep — its own outgoing
    transfers, itself under ``retire`` if it leaves — and the records
    of one ``(group, epoch)`` add up instead.
    """

    group: int
    epoch: int
    plan: RedistributionPlan
    part: bool = False


@dataclass(frozen=True)
class Emit(Command):
    """A structured trace event as a pure protocol output.

    The state machines never read a clock; an ``Emit`` carries only
    logical fields (epoch, reason, transfer counts) and the backend
    timestamps it against its own time domain when — and only when —
    tracing is enabled.  The worker produces ``Emit`` commands solely
    when its ``emit_trace`` flag is set (default off), so scripted
    tests asserting exact command tuples, and runs without a recorder,
    see byte-identical command streams.

    ``fields`` is a sorted tuple of ``(key, value)`` pairs so the
    command stays hashable/frozen; build it with :func:`emit`.
    """

    name: str
    fields: tuple[tuple[str, object], ...] = ()

    def args(self) -> dict:
        return dict(self.fields)


def emit(name: str, **fields) -> Emit:
    """Build an :class:`Emit` from keyword fields."""
    return Emit(name, tuple(sorted(fields.items())))


@dataclass(frozen=True)
class Done(Command):
    """This participant's protocol has terminated.

    ``reason`` is ``"done"`` (group consensus / balancer DONE),
    ``"retired"`` (this node was retired by a plan), or ``"lone"``
    (a distributed node with no peers left and no work to claim).
    """

    reason: str
